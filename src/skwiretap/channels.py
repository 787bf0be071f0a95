"""Stochastic models of the forward channel and the eavesdropper's feedback tap.

The quantum channel is represented only through its induced classical
statistics: coherent input x, homodyne x-quadrature measurement, rescaled by
1/sqrt(eta) so the legitimate receiver sees Y = X + N with N ~ Normal(0,
sigma2). General affine channels Y = a (X + N) with declared non-Gaussian
noise are supported on the same interface.

Randomness is counter-based and splittable: every sample is addressed by
(root_seed, trial, round, role) and is a pure function of that tuple, so
trials can run on any thread in any order and still reproduce bit-identically.
The Philox key is (root_seed, role) and the trial sits in the counter, so the
trials of a chunk are consecutive counters of one numpy ``Philox`` stream.
``lane_uniforms`` is the one reader of that layout: batch simulation draws a
chunk's trials with it, and ``RngLane`` is its view of one trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import log1p, ndtri

from .infotheory import ConfigError, induced_sigma2

__all__ = [
    "NOISE_FAMILIES",
    "NoiseModel",
    "AffineChannel",
    "ThermalWiretapParams",
    "EveTap",
    "ROLE_FORWARD",
    "ROLE_TAP",
    "ROLE_MESSAGE",
    "RngLane",
    "TrialLanes",
    "lane_uniforms",
    "noise_from_uniforms",
]

NOISE_FAMILIES = ("gaussian", "uniform", "two-point", "shifted-exponential")


@dataclass(frozen=True)
class NoiseModel:
    """Additive i.i.d. noise with declared family, variance, and mean.

    The mean is known to all parties and subtracted by the protocol; the
    variance is what every second-moment formula consumes.
    """

    family: str
    variance: float
    mean: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in NOISE_FAMILIES:
            raise ConfigError(f"family={self.family!r} must be one of {NOISE_FAMILIES}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ConfigError(f"variance={self.variance!r} must be finite and > 0")
        if not math.isfinite(self.mean):
            raise ConfigError(f"mean={self.mean!r} must be finite")


@dataclass(frozen=True)
class AffineChannel:
    """Y = gain * (X + N). The degenerate gain = 0 channel is rejected."""

    gain: float
    noise: NoiseModel

    def __post_init__(self) -> None:
        if self.gain == 0 or not math.isfinite(self.gain):
            raise ConfigError(f"gain={self.gain!r} must be finite and nonzero")


@dataclass(frozen=True)
class ThermalWiretapParams:
    """Thermal lossy beamsplitter channel with transmissivity eta and thermal number n_th.

    Coherent encoding and homodyne detection rescaled by 1/sqrt(eta) make it
    the affine channel of unit ``gain`` and zero-mean Gaussian ``noise`` of
    variance ``induced_sigma2(eta, n_th)``; it exposes those two attributes
    like ``AffineChannel``. Its dataclass fields are exactly ``eta`` and
    ``n_th``, so ``asdict`` gives the config echo of the channel.
    """

    eta: float
    n_th: float

    gain = 1.0

    def __post_init__(self) -> None:
        sigma2 = induced_sigma2(self.eta, self.n_th)  # it range-checks eta and n_th
        if not math.isfinite(sigma2):
            raise ConfigError(f"eta={self.eta!r} makes the induced sigma2 overflow")
        object.__setattr__(self, "noise", NoiseModel("gaussian", sigma2, 0.0))


@dataclass(frozen=True)
class EveTap:
    """AWGN tap on the round-0 feedback: W = Y + S, S drawn by its ``noise``, NoiseModel("gaussian", variance)."""

    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ConfigError(
                f"tap variance={self.variance!r} must be finite and > 0 "
                "(a noiseless tap has infinite capacity)"
            )
        object.__setattr__(self, "noise", NoiseModel("gaussian", self.variance))


# ---------------------------------------------------------------------------
# Counter-based randomness
# ---------------------------------------------------------------------------

ROLE_FORWARD = 0
ROLE_TAP = 1
ROLE_MESSAGE = 2

_TRIAL_LIMIT = 1 << 56  # keeps counter word 0 (trial + 1) from carrying into word 1


@dataclass(frozen=True)
class RngLane:
    """One trial's lane of one role: column 0 of ``lane_uniforms`` over trials [trial, trial + 1).

    Position p is round p. Construction refuses what ``lane_uniforms`` refuses.
    """

    root_seed: int
    trial: int
    role: int

    def __post_init__(self) -> None:
        lane_uniforms(self.root_seed, self.role, self.trial, self.trial + 1, 0)

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform(0,1) draws at positions 0..count-1."""
        return lane_uniforms(self.root_seed, self.role, self.trial, self.trial + 1, count)[:, 0]


@dataclass(frozen=True)
class TrialLanes:
    """The per-trial lane bundle a protocol execution consumes."""

    root_seed: int
    trial: int

    @property
    def forward(self) -> RngLane:
        return RngLane(self.root_seed, self.trial, ROLE_FORWARD)

    @property
    def tap(self) -> RngLane:
        return RngLane(self.root_seed, self.trial, ROLE_TAP)


def lane_uniforms(root_seed: int, role: int, start: int, stop: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws at positions 0..count-1 of trials start..stop-1, one row per position.

    The result has shape (count, stop - start). Position p of trial t is word
    p mod 4 of the ``numpy.random.Philox`` block with key (root_seed, role)
    and counter (t + 1, p // 4, 0, 0), mapped to ``((raw >> 11) + 0.5) *
    2^-53``: strictly inside (0, 1), never exactly 1/2. The counters of
    consecutive trials are consecutive, so one numpy ``Philox`` stream per
    position block yields that block's four positions of every trial.
    """
    if not 0 <= root_seed < 1 << 64:
        raise ValueError(f"root_seed={root_seed!r} must be a 64-bit unsigned integer")
    if not 0 <= role < 256:
        raise ValueError(f"role={role!r} must be in [0, 256)")
    if not 0 <= start <= stop <= _TRIAL_LIMIT:
        raise ValueError(f"trials [{start!r}, {stop!r}) must be an ordered range in [0, 2^56)")
    if count < 0:
        raise ValueError(f"count={count!r} must be >= 0")
    # uint64, not a list: numpy turns a list holding a word >= 2^63 into float64
    key = np.array([root_seed, role], dtype=np.uint64)
    out = np.empty((count, stop - start))
    for b in range(-(-count // 4)):
        # numpy increments the counter before it generates: trial t reads block (t + 1, b)
        raw = Philox(counter=[start, b, 0, 0], key=key).random_raw(4 * (stop - start)).reshape(-1, 4)
        rows = out[4 * b : 4 * b + 4]
        np.add(raw[:, : len(rows)].T >> np.uint64(11), 0.5, out=rows)
    out *= 2.0**-53
    return out


def _noise_in_place(nm: NoiseModel, u: np.ndarray) -> np.ndarray:
    """``noise_from_uniforms`` written over ``u`` itself; returns ``u``."""
    if nm.family == "gaussian":
        ndtri(u, out=u)
        u *= math.sqrt(nm.variance)
    elif nm.family == "uniform":
        u *= 2.0
        u -= 1.0
        u *= math.sqrt(3.0 * nm.variance)
    elif nm.family == "two-point":
        # -1 below 1/2, +1 from 1/2 up: u - 1/2 is +0.0 at u = 1/2
        u -= 0.5
        np.copysign(1.0, u, out=u)
        u *= math.sqrt(nm.variance)
    else:  # shifted-exponential
        np.negative(u, out=u)
        # scipy's loop, like ndtri's, gives the same bits at every numpy SIMD level
        log1p(u, out=u)
        np.negative(u, out=u)
        u -= 1.0
        u *= math.sqrt(nm.variance)
    u += nm.mean
    return u


def noise_from_uniforms(nm: NoiseModel, u: np.ndarray) -> np.ndarray:
    """Map uniform draws to noise draws with the declared mean and variance.

    One uniform consumed per sample for every family, which keeps lane
    positions aligned with round indices:

    - gaussian: inverse normal CDF, scaled;
    - uniform: support of half-width sqrt(3 variance) around the mean;
    - two-point: +/- sqrt(variance) around the mean, equiprobable;
    - shifted-exponential: exponential minus one scale, so mean and variance
      match while the skewness (= 2) does not.

    ``u`` is left unchanged; the result is a new array.
    """
    return _noise_in_place(nm, np.array(u, dtype=np.float64))

