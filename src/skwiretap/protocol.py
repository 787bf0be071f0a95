"""Schalkwijk-Kailath feedback encoder/decoder over an induced affine channel.

Round 0 carries the message as a codebook midpoint; every later round refines
the receiver's linear MMSE estimate of the round-0 noise using the noiseless
feedback of his measurements. The scalar gain/estimator/variance schedule is
precomputed per configuration; a full-covariance solve is kept alongside as an
independent cross-check of the recursive estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .channels import AffineChannel, EveTap, ThermalWiretapParams, TrialLanes, noise_from_uniforms
from .infotheory import ConfigError

__all__ = [
    "Codebook",
    "SkSchedule",
    "Transcript",
    "codebook_bits",
    "make_codebook",
    "make_schedule",
    "mmse_oracle",
    "run_protocol",
]

_MAX_CODEBOOK_BITS = 40


@dataclass(frozen=True)
class Codebook:
    """2^ceil(n R) equally spaced midpoints strictly inside [-sqrt(n_s), sqrt(n_s)]."""

    message_count: int
    amplitude_bound: float
    realized_rate: float

    @property
    def half_gap(self) -> float:
        """Half the spacing between adjacent midpoints; the decoding radius."""
        return self.amplitude_bound / self.message_count

    def midpoint(self, m: int) -> float:
        if not 1 <= m <= self.message_count:
            raise ValueError(f"message m={m} outside [1, {self.message_count}]")
        return self.amplitude_bound * (2 * m - 1 - self.message_count) / self.message_count

    def midpoints(self, m: Optional[np.ndarray] = None) -> np.ndarray:
        """Midpoints of the message indices m (an int array), or of every message."""
        if m is None:
            m = np.arange(1, self.message_count + 1)
        return self.amplitude_bound * (2 * m - 1 - self.message_count) / self.message_count

    def decode_value(self, theta) -> np.ndarray:
        """Nearest midpoint indices (int64) of a scalar or array of decoder statistics.

        Exact ties fall to the smaller index; values beyond the amplitude
        bound clamp to the boundary midpoints.
        """
        cells = np.ceil((theta + self.amplitude_bound) * self.message_count / (2.0 * self.amplitude_bound))
        return np.clip(cells, 1, self.message_count).astype(np.int64)


def codebook_bits(n: int, rate: float) -> int:
    """Bits of the message index, ceil(n rate) but at least 1; the realized rate is bits / n."""
    try:
        exact = n * rate
    except OverflowError:  # an integer n beyond double range
        exact = math.inf
    if not math.isfinite(exact):
        raise ConfigError("n*rate is beyond double range")
    nearest = round(exact)
    # snap binary dust (e.g. 0.07 * 300 = 21.000000000000004) before the ceiling
    bits = nearest if abs(exact - nearest) <= 1e-9 * max(1.0, abs(exact)) else math.ceil(exact)
    return max(bits, 1)


def make_codebook(n: int, rate: float, n_s: float) -> Codebook:
    """Build the codebook for blocklength n and nominal rate (bits/round).

    The message count rounds the exponent up, M = 2^ceil(n rate), so realized
    rate >= nominal and intervals are never wider than the analysis assumes.
    """
    if n < 1:
        raise ConfigError(f"n={n} must be >= 1")
    if rate <= 0:
        raise ConfigError(f"rate={rate!r} must be > 0")
    if n_s <= 0:
        raise ConfigError(f"n_s={n_s!r} must be > 0")
    bits = codebook_bits(n, rate)
    if bits > _MAX_CODEBOOK_BITS:
        raise ConfigError(
            f"codebook would need 2^{bits} messages (n*rate too large; limit 2^{_MAX_CODEBOOK_BITS})"
        )
    return Codebook(message_count=1 << bits, amplitude_bound=math.sqrt(n_s), realized_rate=bits / n)


@dataclass(frozen=True)
class SkSchedule:
    """Per-round protocol constants.

    ``gamma[i]`` scales round i's transmission to mean power n_s, ``k_gain[i]``
    is the estimator update weight, ``v[i]`` the residual estimation variance
    after round i (v[0] = sigma2). Index 0 of gamma/k_gain is unused (nan).
    ``log2_v`` tracks v in log space so very deep schedules stay meaningful
    after v underflows.
    """

    blocklength: int
    sigma2: float
    gamma: np.ndarray
    k_gain: np.ndarray
    v: np.ndarray
    log2_v: np.ndarray


def make_schedule(n: int, n_s: float, sigma2: float) -> SkSchedule:
    """Run the scalar MMSE recursion for n rounds.

    v[i] = v[i-1] * sigma2 / (n_s + sigma2), gamma[i] = sqrt(n_s / v[i-1]),
    k[i] = gamma[i] * v[i-1] / (n_s + sigma2). The channel gain never enters
    the recursion: received values are divided by it before estimation.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if n_s <= 0 or sigma2 <= 0:
        raise ValueError(f"n_s={n_s!r} and sigma2={sigma2!r} must be > 0")
    shrink = sigma2 / (n_s + sigma2)
    log2_shrink = math.log2(shrink)
    gamma = np.full(n + 1, math.nan)
    k_gain = np.full(n + 1, math.nan)
    v = np.empty(n + 1)
    log2_v = np.empty(n + 1)
    v[0] = sigma2
    log2_v[0] = math.log2(sigma2)
    log2_n_s = math.log2(n_s)
    for i in range(1, n + 1):
        v_prev, l_prev = v[i - 1], log2_v[i - 1]
        if v_prev > 0 and log2_n_s - l_prev < 1000.0:
            gamma[i] = math.sqrt(n_s / v_prev)
            k_gain[i] = gamma[i] * v_prev / (n_s + sigma2)
        else:
            # n_s / v_prev no longer fits in a double: log-space recursion
            gamma[i] = 2.0 ** (0.5 * (log2_n_s - l_prev))
            k_gain[i] = 2.0 ** (0.5 * (log2_n_s + l_prev)) / (n_s + sigma2)
        v[i] = v_prev * shrink
        log2_v[i] = l_prev + log2_shrink
    for arr in (gamma, k_gain, v, log2_v):
        arr.setflags(write=False)
    return SkSchedule(blocklength=n, sigma2=sigma2, gamma=gamma, k_gain=k_gain, v=v, log2_v=log2_v)


def mmse_oracle(
    observations: Union[Sequence[float], np.ndarray],
    schedule: SkSchedule,
    noise_mean: float = 0.0,
) -> Union[float, np.ndarray]:
    """Estimate the round-0 noise from observations in noise units by a full covariance solve.

    ``observations`` holds one trial's y_1/gain..y_k/gain, or a stack of
    trials, one row each; a stack gives one estimate per row from one solve.
    The caller divides by its channel's gain, as the receiver does, so the
    oracle reads only the schedule's (n, n_s, sigma2). Expands each
    observation linearly in (N0, N1, .., Nk) under the schedule, builds the
    k x k observation covariance and the cross-covariance with N0
    explicitly, and solves the dense linear system. No recursion is used, so
    this is an independent oracle for the recursive estimator.

    The arithmetic is elementwise products and numpy's fixed-order sums, and
    the solve is Gaussian elimination written in them: no BLAS or LAPACK
    call, whose kernel the host CPU picks, so the estimate has the same bits
    on every host.
    """
    observations = np.asarray(observations, dtype=float)
    k = observations.shape[-1]
    if k > schedule.blocklength:
        raise ValueError(f"{k} observations exceed blocklength {schedule.blocklength}")
    # rows: centered observations; columns: basis (N0', N1', .., Nk')
    coeffs = np.zeros((k, k + 1))
    basis_n0 = np.zeros(k + 1)
    basis_n0[0] = 1.0
    est = np.zeros(k + 1)  # running expansion of the centered estimate
    for i in range(1, k + 1):
        coeffs[i - 1] = schedule.gamma[i] * (basis_n0 - est)
        coeffs[i - 1, i] += 1.0
        est = est + schedule.k_gain[i] * coeffs[i - 1]
    cov = (coeffs[:, None, :] * coeffs[None, :, :]).sum(axis=-1)  # coeffs @ coeffs.T
    # the covariance beside its cross-covariance with N0; it is positive definite, so no pivoting
    system = schedule.sigma2 * np.column_stack((cov, coeffs[:, 0]))
    for j in range(k):
        system[j + 1:] -= np.multiply.outer(system[j + 1:, j] / system[j, j], system[j])
    weights = np.empty(k)
    for j in reversed(range(k)):
        weights[j] = (system[j, k] - (system[j, j + 1:k] * weights[j + 1:]).sum()) / system[j, j]
    centered = observations - noise_mean
    estimates = noise_mean + (centered * weights).sum(axis=-1)
    return float(estimates) if estimates.ndim == 0 else estimates


@dataclass(frozen=True)
class Transcript:
    """Complete audit record of one protocol execution.

    ``x``, ``noise``, ``y`` cover rounds 0..n; ``y`` holds raw channel outputs
    (before dividing by the gain) and ``theta_n`` the reduced-unit decoder
    statistic.
    """

    m: int
    m_hat: int
    theta_m: float
    theta_n: float
    w0: float
    x: np.ndarray
    noise: np.ndarray
    y: np.ndarray


def run_protocol(
    m: int,
    codebook: Codebook,
    schedule: SkSchedule,
    channel: Union[AffineChannel, ThermalWiretapParams],
    tap: EveTap,
    lanes: TrialLanes,
) -> Transcript:
    """Execute one complete trial: message round, n refinement rounds, decode.

    The eavesdropper's tap acts on the round-0 feedback value only; its output
    is recorded in the transcript and never decoded (privacy is accounted
    analytically). The protocol spends n + 1 channel uses in total, and reads
    each lane once: the forward lane at positions 0..n, the tap lane at 0.
    """
    n = schedule.blocklength
    gain = channel.gain
    mean = channel.noise.mean
    draws = noise_from_uniforms(channel.noise, lanes.forward.uniforms(n + 1))
    x = np.empty(n + 1)
    y = np.empty(n + 1)

    theta_m = codebook.midpoint(m)
    x[0] = theta_m
    y[0] = gain * (x[0] + draws[0])
    w0 = y[0] + noise_from_uniforms(tap.noise, lanes.tap.uniforms(1))[0]

    # The feedback is noiseless, so Alice's estimate of the round-0 noise is
    # Bob's: one running estimate, started at the declared noise mean.
    first_round_noise = y[0] / gain - x[0]
    nhat = mean
    for i in range(1, n + 1):
        x[i] = schedule.gamma[i] * (first_round_noise - nhat)
        y[i] = gain * (x[i] + draws[i])
        nhat = nhat + schedule.k_gain[i] * (y[i] / gain - mean)

    theta_n = float(y[0] / gain - nhat)
    m_hat = int(codebook.decode_value(theta_n))
    return Transcript(m=m, m_hat=m_hat, theta_m=theta_m, theta_n=theta_n, w0=w0, x=x, noise=y / gain - x, y=y)
