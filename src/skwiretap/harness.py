"""Monte Carlo experiment runner with analytic-bound comparison.

Trials are embarrassingly parallel and individually addressed by
(root_seed, trial_index), so a report is a pure function of its config:
byte-identical across runs, execution orders, and worker counts. Each chunk
of trials is reduced to a few sums (counts, means, central sums and one
co-moment matrix), and the chunk sums are merged in chunk order, never in
scheduling order, so memory stays flat in the trial count. Configs run
together share each chunk's lane draws and keep their own bytes.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import IO, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .channels import (
    ROLE_FORWARD,
    ROLE_MESSAGE,
    ROLE_TAP,
    AffineChannel,
    EveTap,
    NoiseModel,
    ThermalWiretapParams,
    _TRIAL_LIMIT,
    _noise_in_place,
    lane_uniforms,
)
from .infotheory import (
    BoundQuery,
    LeakageBudget,
    awgn_capacity,
    chebyshev_error_bound,
    leakage_budget,
    sk_error_bound,
)
from .protocol import Codebook, SkSchedule, Transcript, make_codebook, make_schedule

__all__ = [
    "ConfigError",
    "MessageSelection",
    "ExperimentConfig",
    "Diagnostics",
    "ExperimentReport",
    "VerdictRow",
    "VerdictTable",
    "run_experiment",
    "worker_pool",
    "collect_transcripts",
    "write_transcripts_csv",
    "wilson_interval",
    "compare_bounds",
    "report_flat_row",
    "REPORT_SCHEMA_VERSION",
]

REPORT_SCHEMA_VERSION = 2

# Fixed batch size: chunk boundaries must not depend on the worker count,
# or float reductions would.
CHUNK_TRIALS = 8192

# trials that collect_transcripts (and so --dump-transcripts) records
TRANSCRIPT_LIMIT = 10_000

_SELECTION_POLICIES = ("uniform-random", "round-robin", "fixed")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class MessageSelection:
    """How the transmitted message is chosen per trial."""

    policy: str
    fixed_m: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in _SELECTION_POLICIES:
            raise ConfigError(f"message selection policy {self.policy!r} not in {_SELECTION_POLICIES}")
        if (self.policy == "fixed") != (self.fixed_m is not None):
            raise ConfigError("fixed_m must be given exactly when policy is 'fixed'")
        if self.fixed_m is not None and self.fixed_m < 1:
            raise ConfigError(f"fixed_m={self.fixed_m} must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, self-contained description of one experiment.

    ``channel`` is the channel the simulation runs on. A thermal channel also
    enables the leakage budget.
    """

    channel: Union[AffineChannel, ThermalWiretapParams]
    n_s: float
    tap: EveTap
    n: int
    rate: float
    trials: int
    root_seed: int = 0
    message_selection: MessageSelection = MessageSelection("uniform-random")

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials={self.trials} must be >= 1")
        if self.trials > _TRIAL_LIMIT:
            raise ConfigError(f"trials={self.trials} must be <= 2^56, the most trials the lanes can address")
        if not 0 <= self.root_seed < 1 << 64:
            raise ConfigError(f"root_seed={self.root_seed} must be a 64-bit unsigned integer")
        try:
            # the range checks of rates and bounds: operating point, codebook size, thermal leakage budget
            BoundQuery(n_s=self.n_s, sigma2=self.channel.noise.variance, n=self.n, rate=self.rate)
            codebook = self.codebook()
            if isinstance(self.channel, ThermalWiretapParams):
                leakage_budget(self.channel.eta, self.channel.n_th, self.n_s, self.channel.noise.variance,
                               self.tap.variance, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fixed_m = self.message_selection.fixed_m
        if fixed_m is not None and fixed_m > codebook.message_count:
            raise ConfigError(f"fixed_m={fixed_m} exceeds message count {codebook.message_count}")
        what, log2_peak = _largest_intermediate(self)
        if log2_peak >= _LOG2_LIMIT:
            raise ConfigError(f"the run would overflow: {what} reaches 2^{log2_peak:.0f}, above 2^{_LOG2_LIMIT}")
        if self.channel.noise.family != "gaussian":  # the configs whose report holds the Chebyshev bound
            query = BoundQuery(n_s=self.n_s, sigma2=self.channel.noise.variance, n=self.n, rate=codebook.realized_rate)
            if not math.isfinite(chebyshev_error_bound(self.channel.gain, query)):
                raise ConfigError(
                    f"the Chebyshev error bound gain^2 2^(-2n(C - R)) sigma2/n_s leaves double range at gain="
                    f"{self.channel.gain!r}, n_s={query.n_s!r}, sigma2={query.sigma2!r}, n={query.n}, R={query.rate!r}"
                )

    @classmethod
    def from_dict(cls, obj: Mapping) -> "ExperimentConfig":
        """Strict parse of the JSON experiment config; unknown fields are rejected."""
        required = ("channel", "tap", "n", "rate", "trials")
        obj = _fields(obj, "experiment config", required, ("n_s", "root_seed", "message_selection"))
        chan = obj["channel"]
        ctype = chan.get("type") if isinstance(chan, Mapping) else None
        try:
            if ctype == "thermal":
                chan = _fields(chan, "thermal channel", ("type", "eta", "n_s"), ("n_th",))
                if "n_s" in obj:
                    raise ConfigError("n_s belongs inside the thermal channel object")
                channel = ThermalWiretapParams(eta=chan["eta"], n_th=chan.get("n_th", 0.0))
                n_s = chan["n_s"]
            elif ctype == "affine":
                chan = _fields(chan, "affine channel", ("type", "noise"), ("gain",))
                if "n_s" not in obj:
                    raise ConfigError("affine channel configs require a top-level n_s")
                noise = _fields(chan["noise"], "noise", ("family", "variance"), ("mean",))
                channel = AffineChannel(
                    chan.get("gain", 1.0), NoiseModel(noise["family"], noise["variance"], noise.get("mean", 0.0))
                )
                n_s = obj["n_s"]
            else:
                raise ConfigError("channel must be a JSON object with type 'thermal' or 'affine'")
            tap = EveTap(_fields(obj["tap"], "tap", ("variance",))["variance"])
        except ConfigError:
            raise
        except ValueError as exc:  # a range check of the channel dataclasses
            raise ConfigError(str(exc)) from exc
        return cls(
            channel=channel,
            n_s=n_s,
            tap=tap,
            n=obj["n"],
            rate=obj["rate"],
            trials=obj["trials"],
            root_seed=obj.get("root_seed", 0),
            message_selection=_selection_from_config(obj.get("message_selection", "uniform-random")),
        )

    def to_dict(self) -> dict:
        """Round-trippable config echo, embedded in every report."""
        if isinstance(self.channel, ThermalWiretapParams):
            out = {"channel": {"type": "thermal", **asdict(self.channel), "n_s": self.n_s}}
        else:
            out = {"channel": {"type": "affine", **asdict(self.channel)}, "n_s": self.n_s}
        sel = self.message_selection
        out.update(
            {
                "tap": asdict(self.tap),
                "n": self.n,
                "rate": self.rate,
                "trials": self.trials,
                "root_seed": self.root_seed,
                "message_selection": (
                    {"type": "fixed", "m": sel.fixed_m} if sel.policy == "fixed" else sel.policy
                ),
            }
        )
        return out

    def codebook(self) -> Codebook:
        return make_codebook(self.n, self.rate, self.n_s)

    def schedule(self) -> SkSchedule:
        return make_schedule(self.n, self.n_s, self.channel.noise.variance)


def _config_int(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name}={value!r} must be an integer")
    return value


def _config_float(value, name: str) -> float:
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond double range
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name}={value!r} must be a finite number")
    return number


# The reader of each numeric field of a config object or physics flag; ``_fields`` keeps any other field as it is.
_FIELD_READERS = dict.fromkeys(("n", "trials", "root_seed", "m", "steps"), _config_int) | dict.fromkeys(
    ("eta", "n_th", "n_s", "sigma2", "rate", "gain", "variance", "mean", "tap_variance", "start", "stop"), _config_float
)


def _fields(obj, where: str, required: Sequence[str], optional: Sequence[str] = ()) -> dict:
    """The fields of JSON object ``obj``, read by type, once it has every required field and no unknown one."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a JSON object, not {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    for field in required:
        if field not in obj:
            raise ConfigError(f"{where} requires {field!r}")
    prefix = "tap " if where == "tap" else ""  # the noise and the tap both have a variance
    return {k: _FIELD_READERS[k](v, prefix + k) if k in _FIELD_READERS else v for k, v in obj.items()}


# A lane uniform lies in [2^-54, 1 - 2^-54], so no noise family draws more than
# 54 ln 2 - 1 = 36.4 standard deviations from its mean (the shifted
# exponential's largest draw; a Gaussian draw stays within 8.3).
_NOISE_TAIL = 37.0
# log2 of the largest number a run may form: a 16th of the largest double,
# which leaves room for the few such terms that ``_Moments.merge`` adds up
_LOG2_LIMIT = sys.float_info.max_exp - 4


def _largest_intermediate(cfg: ExperimentConfig) -> Tuple[str, float]:
    """The largest number a run of ``cfg`` forms, and log2 of a bound on it.

    In exact arithmetic, with T = ``_NOISE_TAIL`` and sigma^2 the noise
    variance: the protocol error after round i is a sum of at most n + 1
    weighted noise draws with variance v_i <= sigma^2, so it lies within
    T sqrt(n+1) sqrt(v_i); each x (theta_m, or gamma_i = sqrt(n_s / v_(i-1))
    times the error) lies within sqrt(n_s) T sqrt(n+1), and each
    y = gain (x + noise) within |gain| (that + |mean| + T sigma). The
    reductions add up, over all trials, fourth powers of x and of the decoder
    error gain (theta_n - theta_m), and products of two y. The schedule's
    largest constant is gamma_n = sqrt(n_s / sigma^2) 2^((n-1) C). The
    rounding floor of the kernel's absolute coordinates is not bounded here.
    """
    noise = cfg.channel.noise
    sigma, gain = math.sqrt(noise.variance), abs(cfg.channel.gain)
    spread = _NOISE_TAIL * math.sqrt(cfg.n + 1)
    x = math.sqrt(cfg.n_s) * spread  # inf past double range, as are the sums below
    log2_trials = math.log2(cfg.trials)
    capacity = awgn_capacity(cfg.n_s, noise.variance)
    return max(
        (
            ("trials * x^4 of the power sums", log2_trials + 4.0 * math.log2(x)),
            ("trials * y^2 of the feedback co-moment",
             log2_trials + 2.0 * (math.log2(gain) + math.log2(x + abs(noise.mean) + _NOISE_TAIL * sigma))),
            ("trials * (gain (theta_n - theta_m))^4 of the decoder sums",
             log2_trials + 4.0 * (math.log2(gain) + math.log2(spread * sigma))),
            ("the schedule gain gamma_n",
             0.5 * (math.log2(cfg.n_s) - math.log2(noise.variance)) + (cfg.n - 1) * capacity),
        ),
        key=lambda item: item[1],
    )


def _selection_from_config(obj) -> MessageSelection:
    if isinstance(obj, str):
        if obj == "fixed":
            raise ConfigError("fixed message selection needs {'type': 'fixed', 'm': <int>}")
        return MessageSelection(obj)
    obj = _fields(obj, "message_selection", ("type",), ("m",))
    if obj["type"] != "fixed":
        raise ConfigError("message_selection object form is only for {'type': 'fixed', 'm': <int>}")
    if "m" not in obj:
        raise ConfigError("message_selection requires 'm'")
    return MessageSelection("fixed", obj["m"])


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def _chunk_draws(cfgs: Sequence[ExperimentConfig], start: int, stop: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The lanes that ``cfgs``, all of one root seed, read for trials [start, stop): (forward, u).

    ``forward`` holds positions 0..n of the forward lane for the largest n,
    one row per position and one column per trial. ``u`` holds position 0 of
    the message lane, or is None when no config draws its message. A lane
    position is a pure function of (root_seed, trial, role), so a config with
    fewer rounds or trials reads a prefix of these draws.
    """
    seed = cfgs[0].root_seed
    forward = lane_uniforms(seed, ROLE_FORWARD, start, stop, 1 + max(c.n for c in cfgs))
    if not any(c.message_selection.policy == "uniform-random" for c in cfgs):
        return forward, None
    return forward, lane_uniforms(seed, ROLE_MESSAGE, start, stop, 1)[0]


def _messages(
    cfg: ExperimentConfig, start: int, stop: int, message_count: int, u: Optional[np.ndarray]
) -> np.ndarray:
    """The message of each trial in [start, stop); ``u`` is the message lane's draws from ``start`` on, if any."""
    sel = cfg.message_selection
    if sel.policy == "uniform-random":
        return np.minimum(1 + (u[: stop - start] * message_count).astype(np.int64), message_count)
    if sel.policy == "round-robin":
        return 1 + np.arange(start, stop, dtype=np.int64) % message_count
    return np.full(stop - start, sel.fixed_m, dtype=np.int64)


def _simulate_chunk(
    cfg: ExperimentConfig, start: int, noise: np.ndarray, u: Optional[np.ndarray], x: Optional[np.ndarray] = None
) -> dict:
    """Vectorized execution of one chunk of trials from ``start`` on; every simulation path runs through here.

    ``noise`` holds the noise of rounds 0..n, one row per round and one
    column per trial of the chunk, and becomes the returned y. ``u`` holds
    the message lane's draws from ``start`` on (None unless the config draws
    its message); the kernel reads as many as the chunk has trials.

    Every arithmetic expression mirrors the scalar protocol path
    (``protocol.run_protocol`` on ``TrialLanes``) exactly, so the two produce
    bit-identical results (asserted in the test suite); acceptance criterion 2
    holds Bob's estimate, y_0/gain - theta_n, to ``protocol.mmse_oracle``.
    Returns the messages, decisions and decoder statistics, each round's power
    sums, ``x``, and the raw y of rounds 0..n as a round-major (n + 1, trials)
    array.

    The kernel works on contiguous rows and in place: round i writes its y
    over noise row i, and its x into row i of ``x`` if the caller passes an
    (n + 1, trials) buffer, numpy ``out=`` style, or else into a scratch row.
    As it forms x_i it reduces x_i^2 to its mean and central sum of squares
    the way numpy reduces row i of a round-major array, so the bits match.
    """
    n = cfg.n
    codebook = cfg.codebook()
    schedule = cfg.schedule()
    gain = cfg.channel.gain
    mean = float(cfg.channel.noise.mean)

    # y holds every round's noise at first; row i turns into round i's y once x_i is added
    y = noise
    count = y.shape[1]
    m = _messages(cfg, start, start + count, codebook.message_count, u)
    theta_m = codebook.midpoints(m)
    power_mean, power_m2, sq = np.empty(n + 1), np.empty(n + 1), np.empty(count)

    def reduce_power(i: int, x_i: np.ndarray) -> None:
        np.multiply(x_i, x_i, out=sq)
        power_mean[i] = sq.mean()
        np.subtract(sq, power_mean[i], out=sq)
        power_m2[i] = np.multiply(sq, sq, out=sq).sum()

    if x is not None:
        x[0] = theta_m
    reduce_power(0, theta_m)
    np.add(theta_m, y[0], out=y[0])
    y[0] *= gain
    y0_reduced = y[0] / gain
    n0 = y0_reduced - theta_m
    nhat = np.full(count, mean)
    step = np.empty(count)
    for i in range(1, n + 1):
        # x_i is dead once it is added to y_i, so without an x buffer it lives in step
        x_i, y_i = step if x is None else x[i], y[i]
        np.subtract(n0, nhat, out=x_i)
        x_i *= schedule.gamma[i]
        reduce_power(i, x_i)
        np.add(x_i, y_i, out=y_i)
        y_i *= gain
        np.divide(y_i, gain, out=step)
        step -= mean
        step *= schedule.k_gain[i]
        nhat += step
    theta_n = np.subtract(y0_reduced, nhat, out=nhat)
    m_hat = codebook.decode_value(theta_n)
    return {"m": m, "m_hat": m_hat, "theta_m": theta_m, "theta_n": theta_n, "x": x, "y": y,
            "power_mean": power_mean, "power_m2": power_m2}


def _chunk(cfg: ExperimentConfig, start: int, stop: int) -> dict:
    """The batch kernel on trials [start, stop) of ``cfg`` alone: draw, map the noise, simulate, keep every x."""
    forward, u = _chunk_draws((cfg,), start, stop)
    return _simulate_chunk(cfg, start, _noise_in_place(cfg.channel.noise, forward), u, np.empty(forward.shape))


def _span_moments(cfgs: Tuple[ExperimentConfig, ...], start: int) -> Dict[int, "_Moments"]:
    """The chunk sums, keyed by index in ``cfgs``, of every config with trials from ``start`` on.

    Config j's chunk is trials [start, min(start + CHUNK_TRIALS, trials_j)),
    the chunk it has when run alone. The configs, all of one root seed, share
    one ``_chunk_draws``, and the config with the most trials (then the most
    rounds) runs last, on a row prefix of the draws themselves, which become
    its y. Configs of another noise model run first, each mapping a
    contiguous copy of its own rows and columns of the draws. Then the draws
    are mapped in place, once, with the last config's noise model, over as
    many rows as the configs of that model need; each of those configs copies
    its own rows and columns of the noise, which become its y. The noise map
    is elementwise, so every config gets the bits it gets alone. A span holds
    the draws and at most one copy, and passes the kernel's power sums on.
    """
    stop = start + CHUNK_TRIALS
    active = (j for j, c in enumerate(cfgs) if c.trials > start)
    *copied, last = sorted(active, key=lambda j: (cfgs[j].trials, cfgs[j].n))
    forward, u = _chunk_draws([cfgs[j] for j in copied + [last]], start, min(stop, cfgs[last].trials))
    model = cfgs[last].channel.noise
    shared = [j for j in copied if cfgs[j].channel.noise == model]

    def own(j: int, rows: np.ndarray) -> np.ndarray:
        """A contiguous copy of config j's rows and columns of ``rows``."""
        return rows[: cfgs[j].n + 1, : min(stop, cfgs[j].trials) - start].copy()

    def chunk_sums(j: int, noise: np.ndarray) -> _Moments:
        """Config j's chunk reduced to its sums; ``noise`` becomes the kernel's y."""
        out = _simulate_chunk(cfgs[j], start, noise, u)
        theta_dev = cfgs[j].channel.gain * (out["theta_n"] - out["theta_m"])
        errors = int(np.count_nonzero(out["m"] != out["m_hat"]))
        return _Moments.of(errors, theta_dev, out["power_mean"], out["power_m2"], out["y"][1:])

    sums: Dict[int, _Moments] = {}
    for j in copied:
        if j not in shared:
            sums[j] = chunk_sums(j, _noise_in_place(cfgs[j].channel.noise, own(j, forward)))
    forward = _noise_in_place(model, forward[: 1 + max(cfgs[j].n for j in shared + [last])])
    for j in shared:
        sums[j] = chunk_sums(j, own(j, forward))
    sums[last] = chunk_sums(last, forward[: cfgs[last].n + 1])
    return sums


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


# two-sided 95% standard normal quantile
_WILSON_Z = 1.96


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials={trials} must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} outside [0, {trials}]")
    p_hat = successes / trials
    z = _WILSON_Z
    z2_t = z * z / trials
    center = (p_hat + z2_t / 2.0) / (1.0 + z2_t)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2_t / (4.0 * trials)) / (1.0 + z2_t)
    # the boundary cases are exactly 0/1; do not let sqrt rounding leak in
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class Diagnostics:
    """Sample statistics the analysis predicts for the transcript ensemble.

    A statistic the trials leave undefined is ``None``, and ``null_reasons``
    maps its field name to the reason.
    """

    max_abs_offdiag_corr: Optional[float]
    theta_skewness: Optional[float]
    theta_excess_kurtosis: Optional[float]
    null_reasons: Mapping[str, str] = field(default_factory=dict)


# A spread at or below (resolution * |mean|)^2 is rounding in the mean, not a
# variance: the statistic normalized by it is undefined (scipy.stats' rule).
_RESOLUTION = float(np.finfo(np.float64).resolution)


def _comoment(y: np.ndarray) -> np.ndarray:
    """``y @ y.T`` for round-major centred ``y``, from its upper triangle.

    einsum, not matmul: no multithreaded BLAS inside the pool workers, and
    the same summation for every worker count. Row i's products with rows
    i.. are the upper triangle, bit-equal to the full ``einsum("ik,jk->ij")``
    at half its work, and mirrored into the lower one.
    """
    rounds = len(y)
    out = np.empty((rounds, rounds))
    for i in range(rounds):
        out[i, i:] = np.einsum("k,jk->j", y[i], y[i:])
        out[i:, i] = out[i, i:]
    return out


@dataclass(frozen=True)
class _Moments:
    """Sufficient statistics of a run of trials, mergeable in a fixed order.

    ``of`` reduces one chunk with centered two-pass sums; ``merge`` is the
    pairwise update of Chan, Golub & LeVeque (1979), with Pebay's terms
    (SAND2008-6212) for the third and fourth central sums. The theta sums are
    of the decoder statistic centered at the sent midpoint, the power sums of
    each round's x^2 (rounds 0..n), the co-moment of the feedback rounds 1..n.
    """

    count: int
    errors: int
    theta_mean: float
    theta_m2: float
    theta_m3: float
    theta_m4: float
    power_mean: np.ndarray
    power_m2: np.ndarray
    y_mean: np.ndarray
    y_comoment: np.ndarray

    @classmethod
    def of(
        cls, errors: int, theta_dev: np.ndarray, power_mean: np.ndarray, power_m2: np.ndarray, y: np.ndarray
    ) -> "_Moments":
        """One chunk's sums from the kernel's power sums and the round-major ``y`` (rounds 1..n, overwritten)."""
        theta_mean = theta_dev.mean()
        c = theta_dev - theta_mean
        c2 = c * c
        y_mean = y.mean(axis=1)
        y -= y_mean[:, None]
        return cls(
            count=len(theta_dev),
            errors=errors,
            theta_mean=float(theta_mean),
            theta_m2=float(c2.sum()),
            theta_m3=float((c2 * c).sum()),
            theta_m4=float((c2 * c2).sum()),
            power_mean=power_mean,
            power_m2=power_m2,
            y_mean=y_mean,
            y_comoment=_comoment(y),
        )

    def merge(self, other: "_Moments") -> "_Moments":
        na, nb = self.count, other.count
        count = na + nb
        wa, wb = na / count, nb / count
        cross = na * wb  # na * nb / count
        d = other.theta_mean - self.theta_mean
        d2 = d * d
        a2, a3, b2, b3 = self.theta_m2, self.theta_m3, other.theta_m2, other.theta_m3
        dp = other.power_mean - self.power_mean
        dy = other.y_mean - self.y_mean
        return _Moments(
            count=count,
            errors=self.errors + other.errors,
            theta_mean=self.theta_mean + d * wb,
            theta_m2=a2 + b2 + d2 * cross,
            theta_m3=a3 + b3 + d2 * d * cross * (wa - wb) + 3.0 * d * (wa * b2 - wb * a2),
            theta_m4=(
                self.theta_m4
                + other.theta_m4
                + d2 * d2 * cross * (wa * wa - wa * wb + wb * wb)
                + 6.0 * d2 * (wa * wa * b2 + wb * wb * a2)
                + 4.0 * d * (wa * b3 - wb * a3)
            ),
            power_mean=self.power_mean + dp * wb,
            power_m2=self.power_m2 + other.power_m2 + dp * dp * cross,
            y_mean=self.y_mean + dy * wb,
            y_comoment=self.y_comoment + other.y_comoment + np.outer(dy, dy * cross),
        )

    def diagnostics(self) -> Diagnostics:
        """The diagnostics these sums define; the undefined ones are None, with a reason."""
        count = self.count
        reasons: Dict[str, str] = {}
        corr: Optional[float] = 0.0  # fewer than 2 feedback rounds: no pair to correlate
        if len(self.y_mean) >= 2:
            flat = np.flatnonzero(np.diagonal(self.y_comoment) / count <= (_RESOLUTION * self.y_mean) ** 2)
            if count < 2:
                corr, reasons["max_abs_offdiag_corr"] = None, "fewer than 2 trials"
            elif flat.size:
                corr, reasons["max_abs_offdiag_corr"] = None, f"feedback round {flat[0] + 1} has zero variance"
            else:
                std = np.sqrt(np.diagonal(self.y_comoment))
                off = self.y_comoment / std[:, None] / std[None, :]
                np.fill_diagonal(off, 0.0)
                corr = min(1.0, float(np.max(np.abs(off))))
        skew = kurt = None
        m2 = self.theta_m2 / count
        if count < 2:
            why = "fewer than 2 trials"
        elif m2 <= (_RESOLUTION * self.theta_mean) ** 2:
            why = "the decoder statistic has zero variance"
        else:
            why = None
            skew = self.theta_m3 / count / m2**1.5
            kurt = self.theta_m4 / count / (m2 * m2) - 3.0
        if why is not None:
            reasons["theta_skewness"] = reasons["theta_excess_kurtosis"] = why
        return Diagnostics(corr, skew, kurt, reasons)


def _fold(spans) -> Dict[int, _Moments]:
    """Each config's chunk sums merged left to right, in the order of ``spans``.

    ``spans`` yields one ``_span_moments`` result per span; each is merged as
    it arrives, so no span result waits in a list.
    """
    sums: Dict[int, _Moments] = {}
    for span in spans:
        for j, chunk in span.items():
            sums[j] = sums[j].merge(chunk) if j in sums else chunk
    return sums


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Aggregated Monte Carlo results plus the analytic quantities they test."""

    config: ExperimentConfig
    error_count: int
    error_rate: float
    error_rate_ci: Tuple[float, float]
    empirical_var_theta: float
    predicted_var_theta: float
    analytic_error_bound: float
    analytic_error_bound_kind: str
    realized_rate: float
    effective_rate: float
    leakage: Optional[LeakageBudget]
    power_mean: np.ndarray
    power_se: np.ndarray
    diag: Diagnostics

    def to_dict(self) -> dict:
        # key order is pinned: reports must serialize byte-identically
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "results": {
                "error_count": self.error_count,
                "error_rate": self.error_rate,
                "error_rate_ci": [self.error_rate_ci[0], self.error_rate_ci[1]],
                "empirical_var_theta": self.empirical_var_theta,
                "predicted_var_theta": self.predicted_var_theta,
                "analytic_error_bound": self.analytic_error_bound,
                "analytic_error_bound_kind": self.analytic_error_bound_kind,
                "realized_rate": self.realized_rate,
                "effective_rate": self.effective_rate,
            },
            "leakage": None if self.leakage is None else asdict(self.leakage),
            "power_audit": {
                "n_s": self.config.n_s,
                "rounds": [
                    {"round": i, "mean_power": float(self.power_mean[i]), "standard_error": float(self.power_se[i])}
                    for i in range(len(self.power_mean))
                ],
            },
            "diagnostics": asdict(self.diag),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


# The pool of the open worker_pool block, if any: acceptance.run_all forks
# the workers on the main thread before its helper thread starts, and the
# helper's run_experiment finds them here.
_pool: Optional[ProcessPoolExecutor] = None


@contextmanager
def worker_pool(workers: int) -> Iterator[ProcessPoolExecutor]:
    """A ``workers``-process pool, started now, on the calling thread, and joined when the block exits.

    Every pool of the package is built here, under one policy:

    - Fork on Linux, whatever the interpreter's default (Python 3.14 made it
      forkserver), so the workers inherit the parent's imports; forkserver
      workers import numpy and scipy first, and ``verify`` took twice as
      long. Elsewhere the platform default, spawn, stays: fork is unsafe on
      macOS, and Windows has none. Spawn workers import the package and start
      as tasks arrive: the same bytes, a longer run.
    - A fork pool forks all its workers at its first submit, before it starts
      its manager thread, so the no-op task here forks them before the caller
      starts any Python thread. That is all the order guarantees: the native
      threads of numpy's and scipy's OpenBLAS are joined by those libraries'
      own fork handlers. Nothing waits on the task: ``int()`` cannot fail,
      and a worker that dies breaks the pool for the first real task.
    - Each worker lowers its own CPU priority to nice 19 as it starts, and
      the parent keeps its own. ``simulate`` and ``sweep`` only wait on the
      pool, but ``verify`` runs its serial report set on the parent while the
      workers run the pooled one, so the parent gets a whole core instead of
      a fair share among three busy processes; on 2 CPUs the worker that
      shares it then lags, and the pooled set can finish last (see
      ``run_all``). The priority moves no byte and no work, only who waits.

    - A pool that fails to start, say on a fork that raises, stops the
      workers it did start before the error leaves: only the pool's manager
      thread, which starts after the last fork, can tell them to exit, and
      the interpreter waits for them at exit.

    While the block is open, pooled ``run_experiment`` calls run on this pool.
    """
    global _pool
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    running = set(multiprocessing.active_children())
    _pool = pool = ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=os.nice, initargs=(19,))
    try:
        try:
            pool.submit(int)
        except BaseException:
            for worker in set(multiprocessing.active_children()) - running:
                worker.terminate()
                worker.join()
            raise
        yield pool
    finally:
        _pool = None
        pool.shutdown(cancel_futures=True)


def run_experiment(
    cfgs: Union[ExperimentConfig, Tuple[ExperimentConfig, ...]], threads: int = 1
) -> Union[ExperimentReport, Tuple[ExperimentReport, ...]]:
    """Run all trials of one config, or of a tuple of configs, and aggregate.

    A single config gives its report; a tuple gives the reports of its
    configs in order, each byte-identical to that config run alone. The
    configs run chunk by chunk together: each span of ``CHUNK_TRIALS`` trials
    draws the lanes once, at the most rounds any config needs, and every
    config reads its own rows and columns of them. The configs share one
    root seed and may differ in anything else, trials included.

    ``threads`` only selects the number of worker processes; chunk boundaries
    and reduction order are fixed, so the reports are byte-identical for any
    value. With ``threads > 1`` and more than one span, the spans run on the
    pool of the open ``worker_pool`` block, or else on a pool of
    ``min(threads, spans)`` workers that is joined before this returns.
    """
    single = isinstance(cfgs, ExperimentConfig)
    batch = (cfgs,) if single else tuple(cfgs)
    seeds = sorted({c.root_seed for c in batch})
    if len(seeds) > 1:
        raise ConfigError(f"configs run together must share one root seed, not {len(seeds)}: {seeds}")
    starts = range(0, max((c.trials for c in batch), default=0), CHUNK_TRIALS)
    # pool.map yields in submission order, so the fold runs in span order;
    # a worker beyond the span count would be forked and never fed
    if threads > 1 and len(starts) > 1:
        with nullcontext(_pool) if _pool else worker_pool(min(threads, len(starts))) as pool:
            sums = _fold(pool.map(_span_moments, repeat(batch), starts))
    else:
        sums = _fold(_span_moments(batch, start) for start in starts)
    reports = tuple(_report(cfg, sums[j]) for j, cfg in enumerate(batch))
    return reports[0] if single else reports


def _report(cfg: ExperimentConfig, stats: _Moments) -> ExperimentReport:
    """The report of ``cfg`` from the sums of all its trials."""
    n, trials = cfg.n, cfg.trials
    codebook = cfg.codebook()
    gain = cfg.channel.gain
    var_noise = cfg.channel.noise.variance
    error_count = stats.errors
    error_rate = error_count / trials
    capacity = awgn_capacity(cfg.n_s, var_noise)
    predicted_var = gain * gain * var_noise * 2.0 ** (-2.0 * n * capacity)

    # the rate of the codebook simulated: M = 2^ceil(n rate) can exceed 2^(n rate)
    bq = BoundQuery(n_s=cfg.n_s, sigma2=var_noise, n=n, rate=codebook.realized_rate)
    if cfg.channel.noise.family == "gaussian":
        bound, kind = sk_error_bound(bq), "sk"
    else:
        bound, kind = chebyshev_error_bound(gain, bq), "chebyshev"

    leak = None
    if isinstance(cfg.channel, ThermalWiretapParams):
        leak = leakage_budget(cfg.channel.eta, cfg.channel.n_th, cfg.n_s, var_noise, cfg.tap.variance, n)

    if trials > 1:
        power_se = np.sqrt(stats.power_m2 / (trials - 1)) / math.sqrt(trials)
    else:
        power_se = np.zeros(n + 1)
    emp_var = stats.theta_m2 / (trials - 1) if trials > 1 else 0.0

    return ExperimentReport(
        config=cfg,
        error_count=error_count,
        error_rate=error_rate,
        error_rate_ci=wilson_interval(error_count, trials),
        empirical_var_theta=emp_var,
        predicted_var_theta=predicted_var,
        analytic_error_bound=bound,
        analytic_error_bound_kind=kind,
        realized_rate=codebook.realized_rate,
        effective_rate=n / (n + 1) * codebook.realized_rate,
        leakage=leak,
        power_mean=stats.power_mean,
        power_se=power_se,
        diag=stats.diagnostics(),
    )


def collect_transcripts(cfg: ExperimentConfig) -> List[Transcript]:
    """Full transcripts of the first min(trials, TRANSCRIPT_LIMIT) trials, with the tap output w0.

    ``run_experiment`` keeps only each chunk's sums; this re-executes the
    leading trials through the batch computation in one chunk, keeping every
    round. The chunk is trial-pure, so the transcripts match the report's
    trials bit for bit. Each transcript holds views into the chunk's arrays.
    """
    count = min(cfg.trials, TRANSCRIPT_LIMIT)
    out = _chunk(cfg, 0, count)
    x, y = out["x"], out["y"]
    noise = y / cfg.channel.gain - x
    w0 = y[0] + _noise_in_place(cfg.tap.noise, lane_uniforms(cfg.root_seed, ROLE_TAP, 0, count, 1)[0])
    x, noise, y = x.T, noise.T, y.T  # one row per trial
    return [
        Transcript(
            m=int(out["m"][j]),
            m_hat=int(out["m_hat"][j]),
            theta_m=float(out["theta_m"][j]),
            theta_n=float(out["theta_n"][j]),
            w0=float(w0[j]),
            x=x[j],
            noise=noise[j],
            y=y[j],
        )
        for j in range(count)
    ]


def write_transcripts_csv(transcripts: Sequence[Transcript], fh: IO[str]) -> None:
    """One row per round (trial, i, x, n, y), then a final row (theta_n, m, m_hat)."""
    fh.write("trial,i,x,n,y\n")
    for trial, t in enumerate(transcripts):
        for i in range(len(t.x)):
            fh.write(f"{trial},{i},{float(t.x[i])!r},{float(t.noise[i])!r},{float(t.y[i])!r}\n")
        fh.write(f"{trial},final,{float(t.theta_n)!r},{t.m},{t.m_hat}\n")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRow:
    """One check of ``empirical`` against ``predicted``, with ``tolerance`` the deviation allowed.

    It passes when ``empirical`` is defined (None fails) and |empirical - predicted| <= tolerance,
    or empirical - predicted <= tolerance for a ``one_sided`` row.
    """

    quantity: str
    empirical: Optional[float]
    predicted: float
    tolerance: float
    one_sided: bool = False

    @property
    def passed(self) -> bool:
        if self.empirical is None:
            return False
        deviation = self.empirical - self.predicted
        return bool((deviation if self.one_sided else abs(deviation)) <= self.tolerance)


@dataclass(frozen=True)
class VerdictTable:
    rows: Tuple[VerdictRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def format_table(self) -> str:
        header = f"{'quantity':<28} {'empirical':>14} {'predicted':>14} {'tolerance':>12} {'pass':>5}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.quantity:<28} {'null' if r.empirical is None else format(r.empirical, '.6g'):>14} "
                f"{r.predicted:>14.6g} "
                f"{r.tolerance:>{'+' if r.one_sided else ''}12.4g} {'ok' if r.passed else 'FAIL':>5}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "quantity": r.quantity,
                    "empirical": r.empirical,
                    "predicted": r.predicted,
                    "tolerance": r.tolerance,
                    "one_sided": r.one_sided,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
            "pass": self.passed,
        }


# the slack of every statistical row of compare_bounds, in standard errors of its statistic
_SE_LIMIT = 5.0


def compare_bounds(report: ExperimentReport) -> VerdictTable:
    """Check every empirical quantity against its analytic prediction.

    A statistical row allows ``_SE_LIMIT`` standard errors of its statistic
    (5% floor on variance ratios); the error rate and round 0's power are
    one-sided rows, free to fall any amount below the bound and n_s. At the
    acceptance configs' 1e5 trials no row of a correct kernel failed at any
    root seed 1..100; at 64 trials a Gaussian config failed some row by
    chance at 3 of 100 seeds. Gaussianity rows are emitted only for Gaussian
    noise, where the distributional claim actually holds.
    """
    cfg = report.config
    trials = cfg.trials
    diag = report.diag
    rows: List[VerdictRow] = []

    bound = report.analytic_error_bound
    err_tol = _SE_LIMIT * math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    rows.append(VerdictRow("error_rate_vs_bound", report.error_rate, bound, err_tol, one_sided=True))

    # the ratio is undefined, and the row fails, below 2 trials and where
    # gain^2 var 2^(-2nC) underflows to 0 for large n C
    predicted_var = report.predicted_var_theta
    ratio = report.empirical_var_theta / predicted_var if predicted_var > 0 and trials > 1 else None
    rows.append(VerdictRow("var_theta_ratio", ratio, 1.0, max(0.05, _SE_LIMIT * math.sqrt(2.0 / trials))))

    # round 0 satisfies the power limit by construction (midpoints are interior)
    rows.append(VerdictRow("power_round0_leq_ns", float(report.power_mean[0]), cfg.n_s, 0.0, one_sided=True))
    # absolute floor absorbs float dust when a round's power is exactly
    # constant (e.g. two-point noise makes X_1^2 deterministic); the row
    # shows the round furthest past its tolerance, so it fails if any round does
    dust = 1e-12 * max(1.0, cfg.n_s)
    tolerances = _SE_LIMIT * report.power_se[1:] + dust
    worst = int(np.argmax(np.abs(report.power_mean[1:] - cfg.n_s) - tolerances)) + 1
    quantity = f"power_round{worst}_within_5se"
    rows.append(VerdictRow(quantity, float(report.power_mean[worst]), cfg.n_s, float(tolerances[worst - 1])))

    if cfg.n >= 2:
        corr_tol = _SE_LIMIT / math.sqrt(trials)
        rows.append(VerdictRow("max_feedback_corr", diag.max_abs_offdiag_corr, 0.0, corr_tol))

    if cfg.channel.noise.family == "gaussian":
        for quantity, value, variance in (
            ("theta_skewness", diag.theta_skewness, 6.0),
            ("theta_excess_kurtosis", diag.theta_excess_kurtosis, 24.0),
        ):
            rows.append(VerdictRow(quantity, value, 0.0, _SE_LIMIT * math.sqrt(variance / trials)))

    if report.leakage is not None:
        lhs = report.leakage.per_mode_bits * (cfg.n + 1)
        total = report.leakage.total_bits
        rows.append(VerdictRow("leakage_identity", lhs, total, 1e-12 * max(1.0, abs(total))))

    return VerdictTable(rows=tuple(rows))


def report_flat_row(report: ExperimentReport) -> dict:
    """Scalar report fields flattened for one CSV sweep row."""
    cfg = report.config
    sigma2 = cfg.channel.noise.variance
    thermal = cfg.channel if isinstance(cfg.channel, ThermalWiretapParams) else None
    row = {
        "n": cfg.n,
        "rate": cfg.rate,
        "n_s": cfg.n_s,
        "eta": thermal.eta if thermal else math.nan,
        "n_th": thermal.n_th if thermal else math.nan,
        "trials": cfg.trials,
        "sigma2": sigma2,
        "p_h": awgn_capacity(cfg.n_s, sigma2),
        "realized_rate": report.realized_rate,
        "effective_rate": report.effective_rate,
        "error_count": report.error_count,
        "error_rate": report.error_rate,
        "error_rate_ci_lo": report.error_rate_ci[0],
        "error_rate_ci_hi": report.error_rate_ci[1],
        "empirical_var_theta": report.empirical_var_theta,
        "predicted_var_theta": report.predicted_var_theta,
        "analytic_error_bound": report.analytic_error_bound,
        "analytic_error_bound_kind": report.analytic_error_bound_kind,
        "max_abs_offdiag_corr": report.diag.max_abs_offdiag_corr,
        "theta_skewness": report.diag.theta_skewness,
        "theta_excess_kurtosis": report.diag.theta_excess_kurtosis,
        "leakage_per_mode_bits": report.leakage.per_mode_bits if report.leakage else math.nan,
    }
    return row
