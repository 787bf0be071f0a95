"""Stochastic models of the forward channel and the eavesdropper's feedback tap.

The quantum channel is represented only through its induced classical
statistics: coherent input x, homodyne x-quadrature measurement, rescaled by
1/sqrt(eta) so the legitimate receiver sees Y = X + N with N ~ Normal(0,
sigma2). General affine channels Y = a (X + N) with declared non-Gaussian
noise are supported on the same interface.

Randomness is counter-based and splittable: every sample is addressed by
(root_seed, trial, round, role) and is a pure function of that tuple, so
trials can run on any thread in any order and still reproduce bit-identically.
Batch simulation draws through one vectorized Philox kernel (``lane_uniforms``)
that reproduces the per-lane ``RngLane`` streams bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta={self.eta!r} must be in (0, 1]")
        if self.n_th < 0:
            raise ValueError(f"n_th={self.n_th!r} must be >= 0")
        # built once; it also rejects an eta whose sigma2 overflows
        object.__setattr__(self, "noise", NoiseModel("gaussian", induced_sigma2(self.eta, self.n_th), 0.0))


@dataclass(frozen=True)
class EveTap:
    """AWGN tap on the round-0 feedback: W = Y + S, S ~ Normal(0, variance)."""

    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise ValueError(
                f"tap variance={self.variance!r} must be finite and > 0 "
                "(a noiseless tap has infinite capacity)"
            )


# ---------------------------------------------------------------------------
# Counter-based randomness
# ---------------------------------------------------------------------------

ROLE_FORWARD = 0
ROLE_TAP = 1
ROLE_MESSAGE = 2

_ROLE_SHIFT = 56  # trial indices occupy the low 56 bits of the second key word
_TRIAL_LIMIT = 1 << _ROLE_SHIFT
_U53_SCALE = 2.0 ** -53


def _check_seed_role(root_seed: int, role: int) -> None:
    if not 0 <= root_seed < 1 << 64:
        raise ValueError(f"root_seed={root_seed!r} must be a 64-bit unsigned integer")
    if not 0 <= role < 256:
        raise ValueError(f"role={role!r} must be in [0, 256)")


def _lane_key(root_seed: int, trial: int, role: int) -> np.ndarray:
    _check_seed_role(root_seed, role)
    if not 0 <= trial < _TRIAL_LIMIT:
        raise ValueError(f"trial={trial!r} must be in [0, 2^56)")
    # uint64, not a list: numpy turns a list holding a word >= 2^63 into float64
    return np.array([root_seed, (role << _ROLE_SHIFT) | trial], dtype=np.uint64)


def _raw_to_uniform(raw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # Centered 53-bit mapping: strictly inside (0, 1), never exactly 1/2.
    u = np.add(raw >> np.uint64(11), 0.5, out=out)
    u *= _U53_SCALE
    return u


class RngLane:
    """One independent stream addressed by (root_seed, trial, role).

    Sample position within the lane is the protocol round index. Lanes with
    distinct keys are independent Philox counter streams; re-creating a lane
    and re-reading a position always yields the same value. This is a thin
    view over ``numpy.random.Philox``, kept for the scalar protocol path and
    as the reference the batch kernel (``lane_uniforms``) is tested against.
    """

    __slots__ = ("root_seed", "trial", "role", "_key")

    def __init__(self, root_seed: int, trial: int, role: int) -> None:
        self._key = _lane_key(root_seed, trial, role)
        self.root_seed = root_seed
        self.trial = trial
        self.role = role

    def uniforms(self, count: int) -> np.ndarray:
        """Uniform(0,1) draws at positions 0..count-1."""
        raw = Philox(key=self._key).random_raw(count)
        return _raw_to_uniform(raw)


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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11), computed for many lanes at once on uint64 arrays. Lane keys and the
# counter layout follow numpy.random.Philox: key (root_seed, role<<56 | trial),
# counter word 0 counting blocks from 1 (numpy increments before generating),
# four output words per block.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORD_MASK = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# counter blocks per kernel pass: keeps the temporaries cache-sized
_PASS_BLOCKS = 1 << 14


def _mulhilo(m: int, a: np.ndarray) -> tuple:
    """High and low words of the 128-bit products m * a, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo = a & _LOW32
    a_hi = a >> _SHIFT32
    carry = a_lo * m_lo
    carry >>= _SHIFT32
    carry += a_hi * m_lo
    cross = a_lo * m_hi
    cross += carry & _LOW32
    cross >>= _SHIFT32
    carry >>= _SHIFT32
    hi = a_hi * m_hi
    hi += carry
    hi += cross
    return hi, a * np.uint64(m)


def _philox_blocks(k0: int, k1: np.ndarray, blocks: int) -> Tuple[np.ndarray, ...]:
    """Output words 0..3 of counter blocks 1..blocks for keys (k0, k1[j]).

    Word w is a (blocks, len(k1)) array: row b holds lane position 4 b + w of
    every key.
    """
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k1 = k1[None, :]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _WORD_MASK
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def lane_uniforms(root_seed: int, role: int, trials, count: int) -> np.ndarray:
    """Uniform(0,1) draws at positions 0..count-1 of many lanes, one row per position.

    The result has shape (count, len(trials)); column j equals
    ``RngLane(root_seed, trials[j], role).uniforms(count)``. The lanes run in
    cache-sized passes, each writing its uniforms straight into the result,
    so no raw-word array of the full size is built.
    """
    _check_seed_role(root_seed, role)
    trials = np.asarray(trials, dtype=np.int64).reshape(-1)
    if trials.size and not (0 <= trials.min() and trials.max() < _TRIAL_LIMIT):
        raise ValueError("trial indices must be in [0, 2^56)")
    if count < 0:
        raise ValueError(f"count={count!r} must be >= 0")
    k1 = trials.astype(np.uint64) | np.uint64(role << _ROLE_SHIFT)
    out = np.empty((count, len(k1)))
    blocks = -(-count // 4)
    step = max(1, _PASS_BLOCKS // max(blocks, 1))
    for lo in range(0, len(k1), step):
        lanes = slice(lo, lo + step)
        for w, words in enumerate(_philox_blocks(root_seed, k1[lanes], blocks)):
            _raw_to_uniform(words[: len(range(w, count, 4))], out=out[w::4, lanes])
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

