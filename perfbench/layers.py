"""The traced run: per-layer timings for one workload.

Spans are recorded from this file, around the calls the CLI makes into the
package's layers (``cli`` -> ``acceptance`` -> ``harness``), by swapping the
names those modules look up for timing wrappers while one traced operation
runs. A layer's self time is its span minus the spans it caused. Layers that
the operation does not reach from the CLI, and the inner ``channels`` and
``protocol`` functions, are timed by calling their public functions directly
on the workload's inputs. Nothing inside the package is changed.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from skwiretap import acceptance, channels, cli, harness, protocol
from skwiretap.harness import ExperimentConfig, ExperimentReport

from workloads import DUMP_LIMIT, TranscriptsWorkload, Workload

# The seed's chunk size. Fixed here so that the layer inputs stay the same
# when the program's own chunking changes.
CHUNK = 8192

PER_LAYER_UNITS = {
    "channels.lane_uniforms_us": "us",
    "channels.noise_map_ns": "ns",
    "protocol.run_protocol_us": "us",
    "protocol.midpoints_ms": "ms",
    "protocol.decode_ns": "ns",
    "protocol.make_schedule_us": "us",
    "harness.run_experiment_s": "s",
    "harness.run_experiment_serial_s": "s",
    "harness.run_experiment_pool_s": "s",
    "harness.pool_speedup": "ratio",
    "harness.compare_bounds_ms": "ms",
    "harness.to_json_ms": "ms",
    "harness.from_dict_ms": "ms",
    "harness.collect_transcripts_s": "s",
    "harness.write_transcripts_csv_s": "s",
    "harness.csv_bytes": "bytes",
    **{f"acceptance.criterion_{k}_s": "s" for k in range(1, len(acceptance.CRITERIA) + 1)},
    "acceptance.shared_reports_1_s": "s",
    "acceptance.shared_reports_2_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Figures computed from the configs rather than measured: printed with the
# traced run as context, never used as a gate, because no change can move them.
COMPUTED_UNITS = {
    "channels.draws": "count",
    "protocol.message_count": "count",
    "harness.retained_mb": "MB",
    "harness.ipc_mb": "MB",
}


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    attrs: dict
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


@dataclass
class Tracer:
    """Spans kept in memory; ``patched()`` swaps in the timing wrappers and always restores them."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[Span] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, self._stack[-1] if self._stack else None, attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func: Callable, name: Union[str, Callable], keep: Sequence[str]) -> Callable:
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            attrs = {}
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = {k: bound.arguments[k] for k in keep}
            with self.span(name if isinstance(name, str) else "?", **attrs) as span:
                result = func(*args, **kwargs)
            if not isinstance(name, str):
                span.name = name(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        criteria = [a for a in vars(acceptance) if a.startswith("criterion_")]
        targets = [
            (cli, "run_all", "run_all", ()),
            (cli, "run_experiment", "run_experiment", ("threads",)),
            (cli, "compare_bounds", "compare_bounds", ()),
            (cli, "collect_transcripts", "collect_transcripts", ()),
            (cli, "write_transcripts_csv", "write_transcripts_csv", ()),
            (ExperimentConfig, "from_dict", "from_dict", ()),
            (ExperimentReport, "to_json", "to_json", ()),
            (acceptance, "shared_reports", "shared_reports", ("threads",)),
            (acceptance, "run_experiment", "run_experiment", ("threads",)),
        ] + [(acceptance, a, lambda r: f"criterion_{r.index}", ()) for a in criteria]
        saved = []
        try:
            for owner, attr, name, keep in targets:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, name, keep))
                else:
                    replacement = self._wrap(original, name, keep)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def named(self, name: str, roots: Optional[Sequence[str]] = None) -> List[Span]:
        return [s for s in self.spans if s.name == name and (roots is None or s.root.name in roots)]

    def self_time(self, span: Span) -> float:
        return span.duration - sum(s.duration for s in self.spans if s.parent is span)


def _per_call(fn: Callable[[], object], calls: int, batches: int = 5) -> float:
    """Median over batches of the mean seconds per call."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _representative(configs: Sequence[ExperimentConfig]) -> ExperimentConfig:
    # the config with the most rounds, then the largest codebook
    return max(configs, key=lambda c: (c.n, c.codebook().message_count))


def _lane_uniforms_s(cfg: ExperimentConfig) -> float:
    trials = iter(range(10**9))
    return _per_call(
        lambda: channels.RngLane(cfg.root_seed, next(trials), channels.ROLE_FORWARD).uniforms(cfg.n + 1),
        400,
    )


def _noise_map_s_per_sample(configs: Sequence[ExperimentConfig]) -> float:
    """Per-sample time over one chunk-shaped array per config, weighted by the samples each op draws."""
    rng = np.random.default_rng(0)
    total_time = total_samples = 0.0
    for cfg in configs:
        u = rng.random((min(CHUNK, cfg.trials), cfg.n + 1))
        per_sample = _per_call(lambda: channels.noise_from_uniforms(cfg.channel.noise, u), 3) / u.size
        samples = cfg.trials * (cfg.n + 1)
        total_time += per_sample * samples
        total_samples += samples
    return total_time / total_samples


def _run_protocol_s(cfg: ExperimentConfig) -> float:
    codebook, schedule = cfg.codebook(), cfg.schedule()
    trials = iter(range(10**9))

    def one():
        t = next(trials)
        m = 1 + t % codebook.message_count
        protocol.run_protocol(
            m, codebook, schedule, cfg.channel, cfg.tap, channels.TrialLanes(cfg.root_seed, t)
        )

    return _per_call(one, max(10, 3000 // (cfg.n + 1)), batches=3)


def _decode_s_per_trial(cfg: ExperimentConfig) -> float:
    codebook = cfg.codebook()
    rng = np.random.default_rng(1)
    m = rng.integers(1, codebook.message_count + 1, CHUNK)
    theta = codebook.amplitude_bound * (2 * m - 1 - codebook.message_count) / codebook.message_count
    theta = theta + rng.normal(0.0, 0.1 * codebook.half_gap, CHUNK)
    return _per_call(lambda: codebook.decode_value(theta), 20) / CHUNK


def _computed(wl: Workload, configs: Sequence[ExperimentConfig]) -> Dict[str, float]:
    """Work and data sizes of one operation, from the configs and the seed's data layout."""
    draws = retained = ipc = 0
    for cfg in configs:
        per_trial = cfg.n + 1 + (cfg.message_selection.policy == "uniform-random")
        draws += cfg.trials * per_trial * len(wl.workers)
        # run_experiment keeps x^2 (n+1 rounds) and y (n rounds) per trial
        retained = max(retained, cfg.trials * (2 * cfg.n + 1) * 8)
        if 2 in wl.workers and cfg.trials > CHUNK:
            # each chunk returns m, m_hat, theta_m, theta_n and both round arrays
            ipc += cfg.trials * (2 * cfg.n + 1 + 4) * 8
    if wl.name == "transcripts":
        cfg = configs[0]
        # the scalar path reads forward positions 0..n once, plus the tap and message lanes
        draws += min(cfg.trials, DUMP_LIMIT) * (cfg.n + 3)
    return {
        "channels.draws": draws,
        "protocol.message_count": max(c.codebook().message_count for c in configs),
        "harness.retained_mb": retained / 2**20,
        "harness.ipc_mb": ipc / 2**20,
    }


@dataclass
class Traced:
    metrics: Dict[str, float]
    computed: Dict[str, float]
    checked_calls: int
    problems: List[str]


def measure(wl: Workload, tracer: Tracer, untraced_s: float, seed: int, tmp: Path) -> Traced:
    """Finish the traced run after its traced operation.

    Layers the operation does not reach are called here once, with their
    output checked: ``checked_calls`` counts them and ``problems`` lists the
    checks they failed.
    """
    problems: List[str] = []
    checked_calls = 0
    configs = wl.configs()
    rep = _representative(configs)

    if wl.name == "verify":
        report = next(r for r in acceptance.shared_reports(threads=1).values() if r.config == rep)
    else:
        # the op ran on 2 workers; this is the serial side of pool_speedup
        with tracer.span("pool_probe"), tracer.span("run_experiment", threads=1):
            report = harness.run_experiment(rep, threads=1)
        acceptance.shared_reports.cache_clear()
        with tracer.patched(), tracer.span("acceptance"):
            results = acceptance.run_all()
        checked_calls += 1
        if not all(r.passed for r in results):
            problems.append("acceptance criteria failed in the traced run")

    if wl.name != "transcripts":
        cfg_t = TranscriptsWorkload(seed, tmp).config(0)
        path = tmp / "layer_transcripts.csv"
        with tracer.span("transcripts"):
            with tracer.span("collect_transcripts"):
                transcripts = harness.collect_transcripts(cfg_t)
            with tracer.span("write_transcripts_csv"), open(path, "w") as fh:
                harness.write_transcripts_csv(transcripts, fh)
        checked_calls += 1
        if len(transcripts) != cfg_t.trials:
            problems.append("collect_transcripts returned the wrong number of trials")
        csv_bytes = path.stat().st_size
        path.unlink()
    else:
        csv_bytes = (wl.out_dir / "transcripts.csv").stat().st_size

    op = tracer.named("cli.main")[0]
    in_op = tracer.named("run_experiment", roots=("cli.main",))
    pooled = tracer.named("run_experiment", roots=("cli.main", "pool_probe"))
    serial = sum(s.duration for s in pooled if s.attrs["threads"] == 1)
    pool = sum(s.duration for s in pooled if s.attrs["threads"] == 2)
    codebook = max((c.codebook() for c in configs), key=lambda c: c.message_count)
    config_dict = rep.to_dict()

    metrics = {
        "channels.lane_uniforms_us": _lane_uniforms_s(rep) * 1e6,
        "channels.noise_map_ns": _noise_map_s_per_sample(configs) * 1e9,
        "protocol.run_protocol_us": _run_protocol_s(rep) * 1e6,
        "protocol.midpoints_ms": _per_call(codebook.midpoints, max(1, 2**16 // codebook.message_count)) * 1e3,
        "protocol.decode_ns": _decode_s_per_trial(rep) * 1e9,
        "protocol.make_schedule_us": _per_call(rep.schedule, 200) * 1e6,
        "harness.run_experiment_s": statistics.fmean(s.duration for s in in_op),
        "harness.run_experiment_serial_s": serial,
        "harness.run_experiment_pool_s": pool,
        "harness.pool_speedup": serial / pool,
        "harness.compare_bounds_ms": _per_call(lambda: harness.compare_bounds(report), 20) * 1e3,
        "harness.to_json_ms": _per_call(report.to_json, 20) * 1e3,
        "harness.from_dict_ms": _per_call(lambda: ExperimentConfig.from_dict(config_dict), 200) * 1e3,
        "harness.collect_transcripts_s": tracer.named("collect_transcripts")[0].duration,
        "harness.write_transcripts_csv_s": tracer.named("write_transcripts_csv")[0].duration,
        "harness.csv_bytes": csv_bytes,
    }
    for k in range(1, len(acceptance.CRITERIA) + 1):
        (span,) = tracer.named(f"criterion_{k}")
        # criterion 10 fetches both report sets; those runs are shared_reports_*_s
        metrics[f"acceptance.criterion_{k}_s"] = span.duration - sum(
            c.duration for c in tracer.named("shared_reports") if c.parent is span
        )
    for threads in (1, 2):
        metrics[f"acceptance.shared_reports_{threads}_s"] = sum(
            s.duration for s in tracer.named("shared_reports") if s.attrs["threads"] == threads
        )
    metrics["cli.self_s"] = tracer.self_time(op)
    metrics["trace.overhead_s"] = op.duration - untraced_s
    return Traced(metrics, _computed(wl, configs), checked_calls, problems)
