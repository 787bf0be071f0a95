"""Closed-form rates, capacities, error bounds, and the privacy-leakage budget.

Everything in this module is a pure scalar function of its arguments: no
randomness, no state. All rates and entropies are in bits (base-2 logs);
natural logs appear only inside the exponentials of tail bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = [
    "ConfigError",
    "BoundQuery",
    "LeakageBudget",
    "TetrationBound",
    "g_entropy",
    "awgn_capacity",
    "induced_sigma2",
    "rate_squeezed_homodyne",
    "sk_error_bound",
    "sk_error_bound_log10",
    "chebyshev_error_bound",
    "phi",
    "phi_inverse",
    "tetration_order",
    "tetration_error_bound",
    "leakage_budget",
]

_LN2 = math.log(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_EPS = sys.float_info.epsilon


class ConfigError(ValueError):
    """An input that a range check refuses; the command line prints it as one ``config error:`` line."""


def _require(cond: bool, name: str, value, valid: str) -> None:
    if not cond:
        raise ConfigError(f"{name}={value!r} is outside its valid range ({valid})")


@dataclass(frozen=True)
class BoundQuery:
    """Operating point of the analytic bounds.

    Attributes
    ----------
    n_s : float
        Mean photon number per mode, > 0.
    sigma2 : float
        Noise variance of the induced additive channel (quadrature units), > 0
        with n_s/sigma2 finite. :func:`induced_sigma2` derives it from (eta, n_th).
    n : int
        Estimation rounds after the message-bearing round 0, >= 1.
    rate : float
        Nominal rate in bits/round, > 0. It may exceed the capacity
        ``awgn_capacity(n_s, sigma2)``; the bounds then stop being meaningful
        but are still evaluated.
    """

    n_s: float
    sigma2: float
    n: int
    rate: float

    def __post_init__(self) -> None:
        _require(self.n_s > 0, "n_s", self.n_s, "> 0")
        _require(self.sigma2 > 0, "sigma2", self.sigma2, "> 0")
        _require(isinstance(self.n, int) and self.n >= 1, "n", self.n, "integer >= 1")
        _require(self.rate > 0, "rate", self.rate, "> 0")
        if not math.isfinite(self.n_s / self.sigma2):
            raise ConfigError(f"n_s/sigma2 = {self.n_s!r}/{self.sigma2!r} overflows")


@dataclass(frozen=True)
class LeakageBudget:
    """Analytic upper bound on the eavesdropper's information, in bits."""

    tap_capacity: float
    eve_entropy_bound: float
    total_bits: float
    per_mode_bits: float


@dataclass(frozen=True)
class TetrationBound:
    """Tower-exponential error bound ``1 / (e ^^ order)``.

    ``value`` is 0.0 with ``underflow=True`` once the tower exceeds double
    range (order >= 4); ``log10_value`` stays finite one level longer and is
    -inf beyond that. The order, which the caller passed in, is the
    informative output in the underflow regime.
    """

    value: float
    underflow: bool
    log10_value: float


def g_entropy(x: float) -> float:
    """Entropy of a thermal state with mean photon number ``x``, in bits.

    g(x) = (x+1) log2(x+1) - x log2(x), with g(0) = 0 by the x log x -> 0
    convention. Above x = 1 the two terms have one sign and the size of
    x log2 x, so their difference of about log2(e x) loses their leading
    digits (it reads 56.0 for 50.27 at x = 5e14, and 0.0 at x = 1e20); there
    g(x) is summed instead as log2(x+1) + x log2(1 + 1/x), two positive terms.
    """
    _require(x >= 0, "x", x, ">= 0")
    if x == 0:
        return 0.0
    if x <= 1.0:
        return (x + 1.0) * math.log1p(x) / _LN2 - x * math.log2(x)
    return math.log1p(x) / _LN2 + x * math.log1p(1.0 / x) / _LN2


def awgn_capacity(power: float, noise: float) -> float:
    """Shannon capacity (1/2) log2(1 + power/noise) of a real AWGN channel."""
    _require(noise > 0, "noise", noise, "> 0")
    _require(power >= 0, "power", power, ">= 0")
    return 0.5 * math.log1p(power / noise) / _LN2


def induced_sigma2(eta: float, n_th: float) -> float:
    """Noise variance of the induced additive channel after homodyne rescaling.

    sigma2 = 1/(4 eta) + (1 - eta) n_th / (2 eta). The vacuum x-quadrature
    variance is 1/4, so eta = 1 with n_th = 0 gives 0.25.
    """
    _require(0 < eta <= 1, "eta", eta, "(0, 1]")
    _require(n_th >= 0, "n_th", n_th, ">= 0")
    return 1.0 / (4.0 * eta) + (1.0 - eta) * n_th / (2.0 * eta)


def rate_squeezed_homodyne(eta: float, n_s: float) -> float:
    """Bits/mode with optimal squeezed-state encoding over the pure-loss channel.

    Valid for 0 < eta < 1 (the internal gain expression divides by 1 - eta);
    the lossless limit is not implemented. Exceeds the coherent-homodyne rate
    at the same (eta, n_s) with n_th = 0.
    """
    _require(0 < eta < 1, "eta", eta, "(0, 1); eta=1 has no squeezing gain expression")
    _require(n_s > 0, "n_s", n_s, "> 0")
    # eta (sqrt(1 + (2(1-eta)/eta)((1+eta)/(2 eta) + 2 n_s)) - 1)/(1 - eta), simplified so
    # that no intermediate overflows for tiny eta
    f = (math.sqrt(1.0 + 4.0 * n_s * eta * (1.0 - eta)) - eta) / (1.0 - eta)
    num = 4.0 * n_s + 2.0 - f + 1.0 / f
    # num / ((1 - eta)/eta + 1/f), multiplied through by eta so that no term overflows
    snr = num * eta / ((1.0 - eta) + eta / f)
    if math.isfinite(snr):
        return 0.5 * math.log1p(snr) / _LN2
    # 4 n_s or the ratio leaves double range: the same terms over 4, and the ratio as a sum of logs
    f = (2.0 * math.sqrt(0.25 + n_s * eta * (1.0 - eta)) - eta) / (1.0 - eta)
    log2_snr = 2.0 + math.log2(n_s + (2.0 - f + 1.0 / f) / 4.0) + math.log2(eta / ((1.0 - eta) + eta / f))
    return 0.5 * (log2_snr if log2_snr > 64.0 else math.log1p(2.0**log2_snr) / _LN2)


def _pow2(x: float) -> float:
    """2 ** x, with +inf where it exceeds double range instead of OverflowError."""
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _sk_exponent(b: BoundQuery) -> float:
    """2^(2 n (P_H - R) - 1) * n_s / sigma2, the (natural-log) exponent of the SK bound."""
    return _pow2(2.0 * b.n * (awgn_capacity(b.n_s, b.sigma2) - b.rate) - 1.0) * b.n_s / b.sigma2


def sk_error_bound(b: BoundQuery) -> float:
    """Doubly-exponential decoding-error bound for the feedback protocol.

    sqrt(2/pi) * exp(-2^(2 n (P_H - R) - 1) * n_s / sigma2), at most its
    sqrt(2/pi) prefactor (the exponent is >= 0). Vanishes super-exponentially
    in n for R < P_H and underflows to exactly 0.0 well inside double range;
    use :func:`sk_error_bound_log10` for reporting in that regime.
    """
    return _SQRT_2_OVER_PI * math.exp(-_sk_exponent(b))


def sk_error_bound_log10(b: BoundQuery) -> float:
    """log10 of :func:`sk_error_bound`, finite even when the bound underflows.

    -inf once the exponent itself exceeds double range.
    """
    return math.log10(_SQRT_2_OVER_PI) - _sk_exponent(b) / math.log(10.0)


def chebyshev_error_bound(gain: float, b: BoundQuery) -> float:
    """Second-moment decoding-error bound for general affine channels.

    gain^2 * 2^(-2 n (C - R)) * sigma2 / n_s, with sigma2 the noise variance
    and C the AWGN capacity at the same second moments. Valid for any
    additive noise, Gaussian or not; +inf where the rate is so far above C
    that 2^(2 n (R - C)) overflows.
    """
    _require(gain != 0, "gain", gain, "!= 0")
    c = awgn_capacity(b.n_s, b.sigma2)
    return gain * gain * _pow2(-2.0 * b.n * (c - b.rate)) * b.sigma2 / b.n_s


def phi(nu: float, n_s: float, sigma2: float) -> float:
    """(nu/2) log2(1 + n_s / (sigma2 nu)): capacity of a nu-fraction of rounds.

    Strictly increasing on (0, 1]; phi(1) is the coherent-homodyne rate.
    """
    _require(0 < nu <= 1, "nu", nu, "(0, 1]")
    _require(n_s > 0, "n_s", n_s, "> 0")
    _require(sigma2 > 0, "sigma2", sigma2, "> 0")
    denominator = sigma2 * nu
    if denominator == 0.0 or math.isinf(n_s / denominator):
        # the ratio leaves double range; log1p(x) and log(x) agree there
        return 0.5 * nu * (math.log(n_s) - math.log(sigma2) - math.log(nu)) / _LN2
    return 0.5 * nu * math.log1p(n_s / denominator) / _LN2


@lru_cache(maxsize=128)
def phi_inverse(rate: float, n_s: float, sigma2: float) -> float:
    """The unique nu in (0, 1] with phi(nu) = rate, by bisection.

    Absolute tolerance 1e-12 on nu; the round-trip residual
    |phi(phi_inverse(R)) - R| stays below 1e-10. Results are cached: the
    tower order of every blocklength at one rate needs one bisection, not one
    per n. A rejected rate raises on every call, as exceptions are not cached.
    """
    p_h = awgn_capacity(n_s, sigma2)
    _require(0 < rate <= p_h, "rate", rate, f"(0, P_H] with P_H={p_h!r}")
    if rate == p_h:
        return 1.0
    # phi(0+) = 0: the bracket holds every rate, however small
    return _bisect(lambda nu: (phi(nu, n_s, sigma2) if nu else 0.0) - rate, 0.0, 1.0, xtol=1e-12)


def _bisect(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb], step for step as ``scipy.optimize.bisect``.

    The same loop as scipy's, with its default rtol (4 eps) and 100-step
    limit, so it returns the same float; importing ``scipy.optimize`` for it
    would cost every command about a quarter of a second.
    """
    fa, fb = f(xa), f(xb)
    # signs are compared, not multiplied: a product of two tiny values underflows to +-0
    if (fa > 0 and fb > 0) or (fa < 0 and fb < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm == 0 or (fm < 0) == (fa < 0):
            xa = xm
        if fm == 0 or abs(dm) < xtol + 4 * _EPS * abs(xm):
            return xm
    raise RuntimeError(f"bisection failed to converge after 100 iterations, value is {xa}")


def tetration_order(b: BoundQuery) -> int:
    """Height of the error-bound exponential tower at blocklength n.

    floor(n (1 - nu*) - 5 (1 - nu*) / (P_H - R)) with nu* = phi_inverse(R).
    Values below 1 mean the tower bound is not yet active at this n; pass
    the order to :func:`tetration_error_bound` once it is. Where P_H - R is
    so small that the second term overflows, the order is floored at
    -sys.float_info.max; an n beyond double range counts as that maximum.
    """
    p_h = awgn_capacity(b.n_s, b.sigma2)
    _require(b.rate < p_h, "rate", b.rate, f"< P_H={p_h!r} for tower bounds")
    nu_star = phi_inverse(b.rate, b.n_s, b.sigma2)
    slack = 1.0 - nu_star
    n = min(b.n, sys.float_info.max)
    return math.floor(max(n * slack - 5.0 * slack / (p_h - b.rate), -sys.float_info.max))


# e, e^e, e^(e^e): the tallest towers whose reciprocal (resp. its log10)
# still fits in a double. Height 4 underflows both.
_TOWER = (math.e, math.exp(math.e), math.exp(math.exp(math.e)))


def tetration_error_bound(order: int) -> TetrationBound:
    """Error bound 1 / (e ^^ order), for a tower order from :func:`tetration_order`.

    The order must be >= 1: below that the bound is not active. Towers of
    height >= 4 exceed double range; the result then carries an explicit
    underflow marker, and the order is the informative quantity.
    """
    _require(order >= 1, "order", order, ">= 1; the tower bound is not active below 1")
    if order <= 3:
        value = 1.0 / _TOWER[order - 1]
        return TetrationBound(value=value, underflow=False, log10_value=math.log10(value))
    if order == 4:
        # 1/(e^^4) = exp(-e^e^e): underflows, but its log10 is still finite.
        return TetrationBound(value=0.0, underflow=True, log10_value=-_TOWER[2] * math.log10(math.e))
    return TetrationBound(value=0.0, underflow=True, log10_value=-math.inf)


def leakage_budget(
    eta: float,
    n_th: float,
    n_s: float,
    sigma2: float,
    tap_variance: float,
    n: int,
) -> LeakageBudget:
    """Bits the eavesdropper can learn, bounded analytically and normalized.

    The budget is the capacity of the round-0 feedback tap at input power
    n_s + sigma2 plus the thermal-entropy bound g((1-eta) n_s + eta n_th) on
    the eavesdropper's optical port. The per-mode figure divides by the n+1
    channel uses; the numerator does not grow with n, which is the entire
    privacy argument. The tap ratio (n_s + sigma2)/tap_variance must be finite.
    """
    _require(0 < eta <= 1, "eta", eta, "(0, 1]")
    _require(n_th >= 0, "n_th", n_th, ">= 0")
    _require(n_s > 0, "n_s", n_s, "> 0")
    _require(sigma2 > 0, "sigma2", sigma2, "> 0")
    _require(
        tap_variance > 0, "tap_variance", tap_variance,
        "> 0; a noiseless tap has infinite capacity",
    )
    _require(isinstance(n, int) and n >= 1, "n", n, "integer >= 1")
    if not math.isfinite((n_s + sigma2) / tap_variance):
        raise ConfigError(f"(n_s + sigma2)/tap variance = ({n_s!r} + {sigma2!r})/{tap_variance!r} overflows")
    tap_capacity = awgn_capacity(n_s + sigma2, tap_variance)
    eve_entropy_bound = g_entropy((1.0 - eta) * n_s + eta * n_th)
    total = tap_capacity + eve_entropy_bound
    return LeakageBudget(
        tap_capacity=tap_capacity,
        eve_entropy_bound=eve_entropy_bound,
        total_bits=total,
        per_mode_bits=total / (n + 1),
    )
