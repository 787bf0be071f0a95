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
from .harness import (
    ConfigError,
    ExperimentConfig,
    _config_float,
    _config_int,
    _fields,
    check_signal_to_noise,
    collect_transcripts,
    compare_bounds,
    report_flat_row,
    run_experiment,
    shutdown_pool,
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

THREADS_ENV_VAR = "SKWIRETAP_THREADS"


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for I/O here
    def error(self, message: str):
        raise CliError(EXIT_CONFIG, message)


def _threads(args) -> int:
    """Worker count for simulate/sweep: --threads, then $SKWIRETAP_THREADS, then 1; each must be >= 1."""
    if args.threads is not None:
        threads, source = args.threads, f"--threads {args.threads}"
    else:
        raw = os.environ.get(THREADS_ENV_VAR, "1")
        source = f"{THREADS_ENV_VAR}={raw!r}"
        try:
            threads = int(raw)
        except ValueError as exc:
            raise CliError(EXIT_CONFIG, f"{source} is not an integer") from exc
    if threads < 1:
        raise CliError(EXIT_CONFIG, f"{source} must be >= 1")
    return threads


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number")


def _load_json(path: str) -> dict:
    """A config file's top-level JSON object; NaN and Infinity are rejected."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_CONFIG, f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(EXIT_CONFIG, f"{path} must hold a JSON object, not {type(obj).__name__}")
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
            raise CliError(EXIT_IO, f"cannot write {out}: {exc}") from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# Physical-parameter input shared by rates/bounds
# ---------------------------------------------------------------------------

_PHYSICS_FIELDS = ("eta", "n_th", "n_s", "sigma2", "n", "rate", "tap_variance")


def _physics_params(args) -> Tuple[dict, BoundQuery]:
    params = {}
    if args.config:
        obj = _fields(_load_json(args.config), args.config, (), _PHYSICS_FIELDS)
        params.update((k, v) for k, v in obj.items() if v is not None)
    for field in _PHYSICS_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            params[field] = value
    # a required parameter may come from the file or a flag, so this check names the flag
    for field in ("eta", "n_s", "n", "rate"):
        if field not in params:
            raise CliError(EXIT_CONFIG, f"missing required parameter --{field.replace('_', '-')}")
    for field, value in params.items():
        params[field] = _config_int(value, field) if field == "n" else _config_float(value, field)
    params.setdefault("n_th", 0.0)
    params.setdefault("tap_variance", None)
    # range-checks eta and n_th even where a given sigma2 replaces the result
    induced = induced_sigma2(params["eta"], params["n_th"])
    if "sigma2" not in params and not math.isfinite(induced):
        raise CliError(EXIT_CONFIG, f"eta={params['eta']!r} makes the induced sigma2 overflow")
    params.setdefault("sigma2", induced)
    query = BoundQuery(n_s=params["n_s"], sigma2=params["sigma2"], n=params["n"], rate=params["rate"])
    check_signal_to_noise(query.n_s, query.sigma2)
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
    if p["tap_variance"] is not None:
        leak = asdict(
            leakage_budget(p["eta"], p["n_th"], query.n_s, query.sigma2, p["tap_variance"], query.n)
        )
    def _finite(value: float):
        return value if math.isfinite(value) else None

    result = {
        "inputs": {k: p[k] for k in _PHYSICS_FIELDS},
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
        raise CliError(EXIT_IO, f"cannot write outputs under {out_dir}: {exc}") from exc

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
    _fields(spec, "sweep", ("axis", "start", "stop", "steps"))
    axis = spec["axis"]
    if axis not in _SWEEP_AXES:
        raise CliError(EXIT_CONFIG, f"sweep axis must be one of {_SWEEP_AXES}")
    steps = _config_int(spec["steps"], "steps")
    if steps < 1:
        raise CliError(EXIT_CONFIG, f"sweep steps={steps} must be >= 1")
    start, stop = _config_float(spec["start"], "start"), _config_float(spec["stop"], "stop")
    values = np.linspace(start, stop, steps).tolist()
    if axis in ("n", "trials"):
        values = [round(v) for v in values]
        if len(set(values)) != len(values):
            raise CliError(EXIT_CONFIG, f"sweep over {axis} produced duplicate integer points")
    return axis, values


def _apply_axis(base: dict, axis: str, value) -> dict:
    obj = json.loads(json.dumps(base))  # deep copy
    chan = obj.get("channel")
    if axis in ("eta", "n_s") and isinstance(chan, Mapping) and chan.get("type") == "thermal":
        chan[axis] = value
    elif axis == "eta":
        raise CliError(EXIT_CONFIG, "sweeping eta requires a thermal channel config")
    else:
        obj[axis] = value
    return obj


def cmd_sweep(args) -> int:
    obj = _load_json(args.config)
    sweep_spec = obj.pop("sweep", None)
    if not isinstance(sweep_spec, Mapping):
        raise CliError(EXIT_CONFIG, "sweep config requires a 'sweep' object")
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
        raise CliError(EXIT_IO, f"cannot write {out_path}: {exc}") from exc
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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_io(parser: argparse.ArgumentParser, config_required: bool, formats: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="JSON config file")
    parser.add_argument("--out", default=None, help="output path")
    if formats:
        parser.add_argument("--format", choices=("json", "csv", "table"), default="table")


def _add_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override root seed")
    parser.add_argument("--threads", type=int, default=None, help="worker process count")


def _add_physics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=_finite_float, help="transmissivity in (0, 1]")
    parser.add_argument("--n-th", dest="n_th", type=_finite_float, help="thermal photon number >= 0")
    parser.add_argument("--n-s", dest="n_s", type=_finite_float, help="mean photon number per mode > 0")
    parser.add_argument("--sigma2", type=_finite_float, help="override the induced noise variance")
    parser.add_argument("--n", type=int, help="estimation rounds after round 0")
    parser.add_argument("--rate", type=_finite_float, help="nominal rate in bits/round")
    parser.add_argument(
        "--tap-variance", dest="tap_variance", type=_finite_float, help="eavesdropper tap noise variance"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="skwiretap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="closed-form achievable rates")
    _add_physics(p_rates)
    _add_io(p_rates, config_required=False)
    p_rates.set_defaults(func=cmd_rates)

    p_bounds = sub.add_parser("bounds", help="analytic error bounds and the leakage budget")
    _add_physics(p_bounds)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
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
    finally:
        # join the workers here, not at exit, so the command's own
        # RUSAGE_CHILDREN figures count them
        shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
