"""skwiretap benchmark: one workload, end-to-end metrics or (with --trace 1) per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify|wide|transcripts --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout. Every op runs in a
fresh worker process (``worker.py``), one after another, until S seconds have
passed; two more processes only set up, for set-up time. A traced run is one
worker process. Everything a run writes goes under ``.perfbench_tmp/`` in the
checkout and is removed at the end. The last line of standard output is the
result as one JSON object; the lines before it give every metric with its
unit, and the machine and versions it ran on. See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
# the same names as workloads.WORKLOADS; this process does not import the package
WORKLOADS = ("verify", "wide", "transcripts")

# set-up-only processes per run; every op process adds one more sample
SETUP_PROBES = 2
# the whole run must end within 180 s
DEADLINE_S = 170.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(args, extra, env, deadline: float) -> dict:
    tmp = TMP / f"{os.getpid()}-{time.monotonic_ns()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp), *extra,
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # its own process group, so that ending it also ends its pool workers
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker exceeded the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind through the clean-up below instead of dying at once
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "skwiretap" / "__init__.py").is_file():
        print(f"perfbench: no skwiretap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("SKWIRETAP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(TMP)
    TMP.mkdir(exist_ok=True)
    ops = []
    try:
        setups = [_worker(args, ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        if args.trace:
            run = _worker(args, ["--trace"], env, deadline)
        else:
            start = time.monotonic()
            while not ops or time.monotonic() - start < args.seconds:
                ops.append(_worker(args, ["--op", str(len(ops))], env, deadline))
            run = ops[0]
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    setups += [r["setup_s"] for r in ops or [run]]

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
        f"workers {','.join(map(str, run['workers']))}"
    )
    print(
        f"nproc {os.cpu_count()}  cpu {_cpu_model()}  python {platform.python_version()}  "
        f"numpy {run['numpy']}  scipy {run['scipy']}"
    )

    extra = dict(run.get("computed", {}))
    if args.trace:
        metrics, problems, attempted = run["metrics"], run["problems"], run["ops"]
    else:
        problems = [r["problem"] for r in ops if r["problem"]]
        attempted = len(ops)
        op_p50 = statistics.median(r["seconds"] for r in ops)
        trials = next((r["trials_per_op"] for r in ops if r["trials_per_op"]), 0)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "op_p50_s": _metric(op_p50, "s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in ops), "MB"),
            "peak_rss_children_mb": _metric(statistics.median(r["peak_rss_children_mb"] for r in ops), "MB"),
        }
        # printed, not gated: it is op_p50_s again, times a constant of the workload
        extra["trials_per_s"] = _metric(trials / op_p50, "1/s")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    shown = {
        **metrics,
        **extra,
        "ops": _metric(attempted, "count"),
        "ops_failed": _metric(len(problems), "count"),
    }
    width = max(map(len, shown))
    for name, m in shown.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    if ops:
        print("op times (s): " + " ".join(f"{r['seconds']:.4f}" for r in ops))
        print("op peak RSS self/children (MB): " + " ".join(
            f"{r['peak_rss_mb']:.1f}/{r['peak_rss_children_mb']:.1f}" for r in ops))
    print("set-up samples (s): " + " ".join(f"{t:.4f}" for t in setups))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
