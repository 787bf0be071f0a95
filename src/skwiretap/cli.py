"""Command-line front end: rates, bounds, simulate, sweep, verify.

Exit codes: 0 success, 1 configuration, domain or memory error, 2 I/O
error, 3 verdict or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .acceptance import run_all
from .channels import EveTap, ThermalWiretapParams
from .harness import (
    ConfigError,
    ExperimentConfig,
    _fields,
    collect_transcripts,
    compare_bounds,
    report_flat_row,
    run_experiment,
    write_transcripts_csv,
)
from .infotheory import (
    BoundQuery,
    awgn_capacity,
    chebyshev_error_bound,
    induced_sigma2,
    leakage_budget,
    rate_squeezed_homodyne,
    sk_error_bound,
    sk_error_bound_log10,
    tetration_error_bound,
    tetration_order,
)
from .protocol import codebook_bits

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERDICT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for I/O here
    def error(self, message: str):
        raise ConfigError(message)


def _threads(args) -> int:
    """Worker count for simulate/sweep, from --threads (default 1), capped at the CPUs this process may use.

    A pool forks every worker at once, and the report does not depend on the
    worker count, so workers beyond the CPUs would only be idle forks. The
    CPUs are the affinity mask where the platform has one, else ``os.cpu_count()``.
    """
    if args.threads < 1:
        raise ConfigError(f"--threads {args.threads} must be >= 1")
    if args.threads == 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(args.threads, cpus)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number")


def _load_json(path: str) -> dict:
    """A config file's top-level JSON object; text that is not UTF-8, NaN and Infinity are rejected."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    try:
        # a UnicodeDecodeError is a ValueError: malformed JSON like any other
        obj = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than the parser goes
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _flatten(obj, prefix: str = "") -> dict:
    flat: dict = {}
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            flat.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            flat.update(_flatten(value, f"{prefix}{idx}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(result: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(result, indent=2, allow_nan=False)
    elif fmt == "csv":
        flat = _flatten(result)
        header = ",".join(flat.keys())
        row = ",".join(_format_cell(v) for v in flat.values())
        text = f"{header}\n{row}"
    else:
        flat = _flatten(result)
        width = max(len(k) for k in flat)
        text = "\n".join(f"{k:<{width}}  {_format_cell(v)}" for k, v in flat.items())
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# Physical-parameter input shared by rates/bounds
# ---------------------------------------------------------------------------

_PHYSICS_FIELDS = ("eta", "n_th", "n_s", "sigma2", "n", "rate", "tap_variance")


def _physics_params(args) -> Tuple[dict, BoundQuery]:
    # a config file may set exactly the fields that the command has flags for
    fields = [field for field in _PHYSICS_FIELDS if hasattr(args, field)]
    obj = _load_json(args.config) if args.config else {}
    # a flag overrides the file, and a known field that the file sets to null is absent
    obj.update((field, getattr(args, field)) for field in fields if getattr(args, field) is not None)
    params = _fields({k: v for k, v in obj.items() if v is not None or k not in fields}, args.config, (), fields)
    # a required parameter may come from the file or a flag, so this check names the flag
    for field in ("eta", "n_s", "n", "rate"):
        if field not in params:
            raise ConfigError(f"missing required parameter --{field.replace('_', '-')}")
    params.setdefault("n_th", 0.0)
    # the range checks of an experiment config, in its order, so each rule has one message
    try:
        if "sigma2" in params:  # eta and n_th are range-checked even where a given sigma2 replaces theirs
            induced_sigma2(params["eta"], params["n_th"])
        else:
            params["sigma2"] = ThermalWiretapParams(params["eta"], params["n_th"]).noise.variance
        if "tap_variance" in params:
            EveTap(params["tap_variance"])
        query = BoundQuery(n_s=params["n_s"], sigma2=params["sigma2"], n=params["n"], rate=params["rate"])
        codebook_bits(query.n, query.rate)  # a config's codebook check, short of its size limit
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, query


def cmd_rates(args) -> int:
    p, query = _physics_params(args)
    p_h = awgn_capacity(query.n_s, query.sigma2)
    realized = codebook_bits(query.n, query.rate) / query.n
    if p["eta"] < 1.0:
        p_sq, p_sq_note = rate_squeezed_homodyne(p["eta"], query.n_s), None
    else:
        p_sq, p_sq_note = None, "domain: eta < 1 required for the squeezed-state rate"
    result = {
        "inputs": {k: p[k] for k in ("eta", "n_th", "n_s", "sigma2", "n", "rate")},
        "sigma2": query.sigma2,
        "p_h": p_h,
        "p_sq": p_sq,
        **({"p_sq_note": p_sq_note} if p_sq_note else {}),
        "realized_rate": realized,
        "effective_rate": query.n / (query.n + 1) * realized,
    }
    _emit(result, args.format, args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    p, query = _physics_params(args)
    p_h = awgn_capacity(query.n_s, query.sigma2)
    sk = sk_error_bound(query)
    tet: dict
    order = tetration_order(query) if query.rate < p_h else None
    if order is None:
        tet = {"note": "not applicable: rate >= P_H"}
    elif order >= 1:
        tb = tetration_error_bound(query)
        tet = {
            "order": tb.order,
            "bound": tb.value,
            "underflow": tb.underflow,
            "log10_bound": tb.log10_value if math.isfinite(tb.log10_value) else None,
        }
    else:
        tet = {"order": order, "note": "not active: tower order below 1 at this n"}
    leak = None
    if "tap_variance" in p:
        try:
            leak = asdict(leakage_budget(p["eta"], p["n_th"], query.n_s, query.sigma2, p["tap_variance"], query.n))
        except ValueError as exc:  # the tap's signal-to-noise ratio overflows
            raise ConfigError(str(exc)) from exc
    def _finite(value: float):
        return value if math.isfinite(value) else None

    result = {
        "inputs": {k: p.get(k) for k in _PHYSICS_FIELDS},
        "p_h": p_h,
        "sk_bound": sk,
        "sk_bound_log10": _finite(sk_error_bound_log10(query)),
        "chebyshev_bound": _finite(chebyshev_error_bound(1.0, query)),
        "tetration": tet,
        "leakage": leak,
    }
    _emit(result, args.format, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    obj = _load_json(args.config)
    if args.seed is not None:
        obj["root_seed"] = args.seed
    cfg = ExperimentConfig.from_dict(obj)
    report = run_experiment(cfg, threads=_threads(args))
    verdict = compare_bounds(report)

    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(report.to_json() + "\n")
        if args.dump_transcripts:
            with open(out_dir / "transcripts.csv", "w") as fh:
                write_transcripts_csv(collect_transcripts(cfg), fh)
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out_dir}: {exc}") from exc

    if args.format == "json":
        _emit({"report": report.to_dict(), "verdict": verdict.to_dict()}, "json", None)
    elif args.format == "csv":
        _emit(verdict.to_dict(), "csv", None)
    else:
        print(verdict.format_table())
    return EXIT_OK if verdict.passed else EXIT_VERDICT


_SWEEP_AXES = ("n", "rate", "n_s", "eta", "trials")


def _sweep_values(spec: Mapping) -> Tuple[str, list]:
    """The axis of the 'sweep' object and the config values along it."""
    spec = _fields(spec, "sweep", ("axis", "start", "stop", "steps"))
    axis, start, stop, steps = spec["axis"], spec["start"], spec["stop"], spec["steps"]
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {_SWEEP_AXES}")
    if steps < 1:
        raise ConfigError(f"sweep steps={steps} must be >= 1")
    if steps == 1 and stop != start:  # np.linspace(start, stop, 1) is [start] alone
        raise ConfigError(f"sweep steps=1 runs start={start!r} alone: stop={stop!r} must equal it")
    if not math.isfinite(stop - start):  # np.linspace steps by (stop - start)/(steps - 1)
        raise ConfigError(f"sweep range from start={start!r} to stop={stop!r} overflows")
    try:
        values = np.linspace(start, stop, steps).tolist()
    except (ValueError, IndexError) as exc:  # a size numpy cannot lay out; from 2^63 - 512 arange is empty
        raise ConfigError("sweep steps are more float64 values than numpy can hold") from exc
    if axis in ("n", "trials"):
        values = [round(v) for v in values]
        if len(set(values)) != len(values):
            raise ConfigError(f"sweep over {axis} produced duplicate integer points")
    return axis, values


def _apply_axis(base: dict, axis: str, value) -> dict:
    obj = dict(base)  # a copy of each object it edits; a deep copy recurses as deep as the file nests
    chan = obj.get("channel")
    if axis in ("eta", "n_s") and isinstance(chan, Mapping) and chan.get("type") == "thermal":
        obj["channel"] = dict(chan, **{axis: value})
    elif axis == "eta":
        raise ConfigError("sweeping eta requires a thermal channel config")
    else:
        obj[axis] = value
    return obj


def cmd_sweep(args) -> int:
    obj = _load_json(args.config)
    sweep_spec = obj.pop("sweep", None)
    if not isinstance(sweep_spec, Mapping):
        raise ConfigError("sweep config requires a 'sweep' object")
    axis, values = _sweep_values(sweep_spec)
    if args.seed is not None:
        obj["root_seed"] = args.seed
    threads = _threads(args)

    # every point is checked before any runs; then all run chunk by chunk together
    cfgs = tuple(ExperimentConfig.from_dict(_apply_axis(obj, axis, value)) for value in values)
    rows = [report_flat_row(report) for report in run_experiment(cfgs, threads=threads)]

    out_path = Path(args.out or "sweep.csv")
    try:
        with open(out_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc}") from exc
    print(f"wrote {len(rows)} sweep rows to {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    print("running Monte Carlo experiments (pinned seeds)...")
    results = run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.index:>2}. {r.name}: {r.details}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERDICT


def _add_io(parser: argparse.ArgumentParser, config_required: bool, formats: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="JSON config file")
    parser.add_argument("--out", default=None, help="output path")
    if formats:
        parser.add_argument("--format", choices=("json", "csv", "table"), default="table")


def _add_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--threads", type=int, default=1, help="worker process count")


def _add_physics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, help="transmissivity in (0, 1]")
    parser.add_argument("--n-th", dest="n_th", type=float, help="thermal photon number >= 0")
    parser.add_argument("--n-s", dest="n_s", type=float, help="mean photon number per mode > 0")
    parser.add_argument("--sigma2", type=float, help="override the induced noise variance")
    parser.add_argument("--n", type=int, help="estimation rounds after round 0")
    parser.add_argument("--rate", type=float, help="nominal rate in bits/round")


def build_parser() -> _Parser:
    parser = _Parser(prog="skwiretap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="closed-form achievable rates")
    _add_physics(p_rates)
    _add_io(p_rates, config_required=False)
    p_rates.set_defaults(func=cmd_rates)

    p_bounds = sub.add_parser("bounds", help="analytic error bounds and the leakage budget")
    _add_physics(p_bounds)
    p_bounds.add_argument("--tap-variance", dest="tap_variance", type=float, help="eavesdropper tap noise variance")
    _add_io(p_bounds, config_required=False)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    _add_io(p_sim, config_required=True)
    _add_run(p_sim)
    p_sim.add_argument("--dump-transcripts", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run an experiment per point along one axis")
    _add_io(p_sweep, config_required=True, formats=False)
    _add_run(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a run too large to allocate
        print(f"memory error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
