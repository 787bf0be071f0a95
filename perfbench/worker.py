"""One benchmark process: set up one workload, then run one op or the traced run; print one JSON line.

``run.py`` starts this script in a fresh interpreter for every op, as a user
starts ``skwiretap`` once per command. So the lifetime peaks ``ru_maxrss`` of
this process (``RUSAGE_SELF``) and of its pool workers (``RUSAGE_CHILDREN``)
belong to that one op, and no op inherits memory another op left behind.

Set-up time runs from ``--spawned-at``, the parent's ``CLOCK_MONOTONIC``
reading just before it started this process, to the moment the workload is
ready: the interpreter has started, ``skwiretap`` with numpy and scipy is
imported, the configs are parsed and the temp dir exists.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from skwiretap import cli

import layers
from workloads import WORKLOADS, make_workload


def _run_op(wl, k: int, tracer=None):
    """One operation through ``cli.main``; returns (seconds, problem or None)."""
    argv = wl.prepare(k)
    gc.collect()
    out = io.StringIO()
    patches = tracer.patched() if tracer else contextlib.nullcontext()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), patches, span:
            rc = cli.main(argv)
        seconds = time.perf_counter() - start
        return seconds, wl.check(rc, out.getvalue())
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        traceback.print_exc()
        return time.perf_counter() - start, "raised"


def _peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _traced(wl, seed: int, tmp: Path) -> dict:
    """One untraced op, one traced op, then the layer calls of ``layers.measure``."""
    untraced_s, problem = _run_op(wl, 0)
    problems = [problem] if problem else []
    tracer = layers.Tracer()
    _, problem = _run_op(wl, 1, tracer)
    problems += [problem] if problem else []
    traced = layers.measure(wl, tracer, untraced_s, seed, tmp)
    return {
        "ops": 2 + traced.checked_calls,
        "problems": problems + traced.problems,
        "metrics": {k: {"value": v, "unit": layers.PER_LAYER_UNITS[k]} for k, v in traced.metrics.items()},
        "computed": {
            k: {"value": v, "unit": layers.COMPUTED_UNITS[k] + " (computed)"} for k, v in traced.computed.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--op", type=int, help="run the op with this index")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True)
    try:
        wl = make_workload(args.workload, args.seed, tmp)
        result = {
            "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at,
            "workers": list(wl.workers),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        if args.op is not None:
            seconds, problem = _run_op(wl, args.op)
            result.update(
                seconds=seconds,
                problem=problem,
                # verify reads its configs back from the report cache the op filled
                trials_per_op=None if problem else wl.trials_per_op,
                peak_rss_mb=_peak_mb(resource.RUSAGE_SELF),
                peak_rss_children_mb=_peak_mb(resource.RUSAGE_CHILDREN),
            )
        elif args.trace:
            result.update(_traced(wl, args.seed, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
