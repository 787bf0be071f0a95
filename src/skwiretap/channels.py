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
trials of a chunk are consecutive counters of one numpy ``Philox`` stream:
batch simulation draws them with ``lane_uniforms``, and ``RngLane`` reads the
same positions one trial at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Philox
from scipy.special import log1p, ndtri

from .infotheory import induced_sigma2

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
            raise ValueError(f"family={self.family!r} must be one of {NOISE_FAMILIES}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance={self.variance!r} must be finite and > 0")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean={self.mean!r} must be finite")


@dataclass(frozen=True)
class AffineChannel:
    """Y = gain * (X + N). The degenerate gain = 0 channel is rejected."""

    gain: float
    noise: NoiseModel

    def __post_init__(self) -> None:
        if self.gain == 0 or not math.isfinite(self.gain):
            raise ValueError(f"gain={self.gain!r} must be finite and nonzero")


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
            raise ValueError(f"eta={self.eta!r} makes the induced sigma2 overflow")
        object.__setattr__(self, "noise", NoiseModel("gaussian", sigma2, 0.0))


@dataclass(frozen=True)
class EveTap:
    """AWGN tap on the round-0 feedback: W = Y + S, S drawn by its ``noise``, NoiseModel("gaussian", variance)."""

    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(
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
_U53_SCALE = 2.0 ** -53


def _philox_key(root_seed: int, role: int) -> np.ndarray:
    if not 0 <= root_seed < 1 << 64:
        raise ValueError(f"root_seed={root_seed!r} must be a 64-bit unsigned integer")
    if not 0 <= role < 256:
        raise ValueError(f"role={role!r} must be in [0, 256)")
    # uint64, not a list: numpy turns a list holding a word >= 2^63 into float64
    return np.array([root_seed, role], dtype=np.uint64)


def _raw_to_uniform(raw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # Centered 53-bit mapping: strictly inside (0, 1), never exactly 1/2.
    u = np.add(raw >> np.uint64(11), 0.5, out=out)
    u *= _U53_SCALE
    return u


class RngLane:
    """One independent stream addressed by (root_seed, trial, role).

    Sample position within the lane is the protocol round index: position p
    is word p mod 4 of the ``numpy.random.Philox`` block with key
    (root_seed, role) and counter (trial + 1, p // 4, 0, 0). Re-creating a
    lane and re-reading a position always yields the same value. It reads one
    block at a time, a generator per block, so it is the per-trial reference
    the batch draws (``lane_uniforms``) are tested against.
    """

    __slots__ = ("root_seed", "trial", "role", "_key")

    def __init__(self, root_seed: int, trial: int, role: int) -> None:
        self._key = _philox_key(root_seed, role)
        if not 0 <= trial < _TRIAL_LIMIT:
            raise ValueError(f"trial={trial!r} must be in [0, 2^56)")
        self.root_seed = root_seed
        self.trial = trial
        self.role = role

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform(0,1) draws at positions 0..count-1."""
        raw = np.empty(4 * -(-count // 4), dtype=np.uint64)
        for b in range(len(raw) // 4):
            # numpy increments the counter before it generates: this is block (trial + 1, b)
            raw[4 * b : 4 * b + 4] = Philox(counter=[self.trial, b, 0, 0], key=self._key).random_raw(4)
        return _raw_to_uniform(raw[:count])


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

    The result has shape (count, stop - start); column j equals
    ``RngLane(root_seed, start + j, role).uniforms(count)``. The counters of
    consecutive trials are consecutive, so one numpy ``Philox`` stream per
    position block yields that block's four positions of every trial.
    """
    key = _philox_key(root_seed, role)
    if not 0 <= start <= stop <= _TRIAL_LIMIT:
        raise ValueError(f"trials [{start!r}, {stop!r}) must be an ordered range in [0, 2^56)")
    if count < 0:
        raise ValueError(f"count={count!r} must be >= 0")
    out = np.empty((count, stop - start))
    for b in range(-(-count // 4)):
        raw = Philox(counter=[start, b, 0, 0], key=key).random_raw(4 * (stop - start)).reshape(-1, 4)
        rows = out[4 * b : 4 * b + 4]
        _raw_to_uniform(raw[:, : len(rows)].T, out=rows)
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

