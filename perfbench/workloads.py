"""The benchmark's workloads: inputs made from the seed, one CLI operation, and its output check.

Every operation goes through the public ``skwiretap.cli.main`` entry point in
this process. ``prepare`` (untimed) writes the operation's inputs and returns
its argv; ``check`` (untimed) returns ``None`` when the output is correct, or
a one-line reason. The checks hold for any seed and do not compare report
bytes, so a change that moves report values at rounding level still passes.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from pathlib import Path
from typing import List, Optional, Sequence

from skwiretap import acceptance
from skwiretap.harness import ExperimentConfig

WORKLOADS = ("verify", "wide", "transcripts")

# Every trial of the transcripts workload is dumped: its trial count equals the
# default limit of ``collect_transcripts``.
DUMP_LIMIT = 10_000


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


class Workload:
    name: str
    workers: Sequence[int]
    trials_per_op: int

    def prepare(self, k: int) -> List[str]:
        raise NotImplementedError

    def check(self, rc: int, stdout: str) -> Optional[str]:
        raise NotImplementedError

    def configs(self) -> List[ExperimentConfig]:
        """The experiment configs one operation runs (each once per worker count)."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    """``skwiretap verify``: the ten-criterion acceptance gate.

    Its seeds and trial counts are pinned by ``acceptance``, so the benchmark
    seed is ignored. The per-process report cache is cleared before every
    operation, and the check asserts that both worker counts missed it, so no
    operation is a cache hit that measured nothing.
    """

    name = "verify"
    workers = (1, 2)

    def __init__(self, seed: int, tmp: Path) -> None:
        del seed, tmp
        self._misses_before = 0

    def prepare(self, k: int) -> List[str]:
        acceptance.shared_reports.cache_clear()
        self._misses_before = acceptance.shared_reports.cache_info().misses
        return ["verify"]

    def check(self, rc: int, stdout: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        total = len(acceptance.CRITERIA)
        if f"{total}/{total} criteria passed" not in stdout:
            return "not every criterion passed"
        misses = acceptance.shared_reports.cache_info().misses - self._misses_before
        if misses != len(self.workers):
            return f"shared_reports missed {misses} times, expected {len(self.workers)}"
        return None

    def configs(self) -> List[ExperimentConfig]:
        # read back from the cache the last operation filled
        if acceptance.shared_reports.cache_info().currsize == 0:
            raise RuntimeError("no verify operation has run in this process")
        return [r.config for r in acceptance.shared_reports(threads=1).values()]

    @property
    def trials_per_op(self) -> int:
        return sum(c.trials for c in self.configs()) * len(self.workers)


class SimulateWorkload(Workload):
    """``skwiretap simulate`` on one config; each operation gets a fresh root seed from the seed."""

    workers = (2,)

    def __init__(self, seed: int, tmp: Path) -> None:
        self._rng = random.Random(f"{self.name}:{seed}")
        self._tmp = tmp
        self._expected_seed: Optional[int] = None
        self.last_report: Optional[dict] = None
        self._root_seeds: List[int] = []
        self.config(0)

    def base_config(self) -> dict:
        raise NotImplementedError

    def config_dict(self, k: int) -> dict:
        while len(self._root_seeds) <= k:
            self._root_seeds.append(self._rng.getrandbits(64))
        return {**self.base_config(), "root_seed": self._root_seeds[k]}

    def config(self, k: int = 0) -> ExperimentConfig:
        return ExperimentConfig.from_dict(self.config_dict(k))

    def configs(self) -> List[ExperimentConfig]:
        return [self.config(0)]

    @property
    def trials_per_op(self) -> int:
        return self.config(0).trials

    @property
    def out_dir(self) -> Path:
        return self._tmp / "out"

    def prepare(self, k: int) -> List[str]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        cfg = self.config_dict(k)
        path = self._tmp / "config.json"
        path.write_text(json.dumps(cfg))
        self._expected_seed = cfg["root_seed"]
        argv = ["simulate", "--config", str(path), "--out", str(self.out_dir)]
        return argv + ["--threads", str(self.workers[0])]

    def check(self, rc: int, stdout: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if "overall: pass" not in stdout:
            return "verdict table did not pass"
        try:
            report = json.loads(
                (self.out_dir / "report.json").read_text(), parse_constant=_reject_constant
            )
        except (OSError, ValueError) as exc:
            return f"report.json is not strict JSON: {exc}"
        if report["config"]["root_seed"] != self._expected_seed:
            return "report.json echoes another root seed"
        if report["results"]["error_count"] != 0:
            return f"error_count {report['results']['error_count']} != 0"
        self.last_report = report
        return None


class WideWorkload(SimulateWorkload):
    """n=40 with 2^20 messages and 4e5 trials on 2 workers: reductions, pool IPC and memory.

    Round-robin selection draws no message lane, so the forward lane is the
    only Philox work.
    """

    name = "wide"

    def base_config(self) -> dict:
        return {
            "channel": {"type": "thermal", "eta": 0.5, "n_th": 1.0, "n_s": 3.0},
            "tap": {"variance": 1.0},
            "n": 40,
            "rate": 0.5,
            "trials": 400_000,
            "message_selection": "round-robin",
        }


class TranscriptsWorkload(SimulateWorkload):
    """``--dump-transcripts`` on every trial: the scalar round-by-round path and CSV writing.

    Runs on 2 workers, not 1, so that the pool is used (its batch part is
    under 3% of the time) and ``peak_rss_children_mb`` is never 0.
    """

    name = "transcripts"

    def base_config(self) -> dict:
        return {
            "channel": {
                "type": "affine",
                "gain": 2.0,
                "noise": {"family": "uniform", "variance": 1.0, "mean": 0.0},
            },
            "n_s": 3.0,
            "tap": {"variance": 1.0},
            "n": 20,
            "rate": 0.5,
            "trials": DUMP_LIMIT,
        }

    def prepare(self, k: int) -> List[str]:
        return super().prepare(k) + ["--dump-transcripts"]

    def check(self, rc: int, stdout: str) -> Optional[str]:
        problem = super().check(rc, stdout)
        if problem:
            return problem
        n, trials = self.config(0).n, self.config(0).trials
        rows = finals = wrong = 0
        with open(self.out_dir / "transcripts.csv", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["trial", "i", "x", "n", "y"]:
                return "transcripts.csv has an unexpected header"
            for row in reader:
                rows += 1
                if row[1] == "final":
                    finals += 1
                    wrong += row[3] != row[4]
        if rows != trials * (n + 2):
            return f"transcripts.csv has {rows} data rows, expected {trials * (n + 2)}"
        if finals != trials:
            return f"transcripts.csv has {finals} final rows, expected {trials}"
        # every trial is dumped, so the scalar path's errors must equal the batch count
        if wrong != self.last_report["results"]["error_count"]:
            return f"{wrong} transcript errors but report error_count {self.last_report['results']['error_count']}"
        return None


def make_workload(name: str, seed: int, tmp: Path) -> Workload:
    classes = {"verify": VerifyWorkload, "wide": WideWorkload, "transcripts": TranscriptsWorkload}
    return classes[name](seed, tmp)
