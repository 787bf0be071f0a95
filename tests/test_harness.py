"""Experiment configs, the batch trial kernel, aggregation, verdicts, and reports."""

import concurrent.futures
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skwiretap import harness
from skwiretap.channels import (
    ROLE_MESSAGE,
    AffineChannel,
    EveTap,
    NoiseModel,
    RngLane,
    ThermalWiretapParams,
    TrialLanes,
)
from skwiretap.harness import (
    CHUNK_TRIALS,
    TRANSCRIPT_LIMIT,
    ConfigError,
    ExperimentConfig,
    MessageSelection,
    _chunk,
    collect_transcripts,
    compare_bounds,
    report_flat_row,
    run_experiment,
    wilson_interval,
    write_transcripts_csv,
)
from skwiretap.infotheory import BoundQuery, chebyshev_error_bound, leakage_budget, sk_error_bound
from skwiretap.protocol import run_protocol

SEED = 161803

THERMAL_CFG_DICT = {
    "channel": {"type": "thermal", "eta": 0.5, "n_th": 1.0, "n_s": 3.0},
    "tap": {"variance": 1.0},
    "n": 4,
    "rate": 0.5,
    "trials": 2000,
    "root_seed": SEED,
    "message_selection": "uniform-random",
}


def _thermal_cfg(**overrides) -> ExperimentConfig:
    kwargs = dict(n=4, rate=0.5, trials=2000, root_seed=SEED)
    kwargs.update(overrides)
    return ExperimentConfig(channel=ThermalWiretapParams(eta=0.5, n_th=1.0), n_s=3.0, tap=EveTap(1.0), **kwargs)


def _affine_cfg(family="two-point", gain=1.0, variance=1.0, n_s=3.0, mean=0.0, **overrides) -> ExperimentConfig:
    kwargs = dict(n=4, rate=0.5, trials=2000, root_seed=SEED)
    kwargs.update(overrides)
    return ExperimentConfig(
        channel=AffineChannel(gain, NoiseModel(family, variance, mean)), n_s=n_s, tap=EveTap(1.0), **kwargs
    )


def _two_point_mean_cfg() -> ExperimentConfig:
    return _affine_cfg("two-point", mean=0.6)


def _exponential_cfg() -> ExperimentConfig:
    return _affine_cfg("shifted-exponential", -0.75, variance=1.5, mean=-0.3)


def _scaled_tap_cfg() -> ExperimentConfig:
    # a tap variance other than 1, so the tap lane's scale shows in w0
    return dataclasses.replace(_thermal_cfg(), tap=EveTap(0.37))


def _high_seed_cfg() -> ExperimentConfig:
    # a root seed >= 2^63 does not fit a signed 64-bit word
    return _thermal_cfg(root_seed=2**63 + 12345)


class TestConfig:
    def test_from_dict_thermal(self):
        cfg = ExperimentConfig.from_dict(THERMAL_CFG_DICT)
        assert cfg.channel == ThermalWiretapParams(0.5, 1.0) and cfg.channel.noise.variance == 1.0
        assert cfg.channel.noise.family == "gaussian"
        assert cfg.n_s == 3.0

    def test_from_dict_affine(self):
        obj = {
            "channel": {"type": "affine", "gain": 2.0, "noise": {"family": "uniform", "variance": 1.0}},
            "n_s": 3.0,
            "tap": {"variance": 0.5},
            "n": 3,
            "rate": 0.4,
            "trials": 10,
        }
        cfg = ExperimentConfig.from_dict(obj)
        assert isinstance(cfg.channel, AffineChannel) and cfg.channel.gain == 2.0
        assert cfg.channel.noise.mean == 0.0  # the default when "mean" is absent
        assert cfg.root_seed == 0 and cfg.message_selection.policy == "uniform-random"

    def test_round_trip(self):
        noise = NoiseModel("two-point", 2.0, -0.5)
        shifted = dataclasses.replace(_affine_cfg(), channel=AffineChannel(1.0, noise))
        assert shifted.to_dict()["channel"]["noise"] == {"family": "two-point", "variance": 2.0, "mean": -0.5}
        round_robin = _thermal_cfg(message_selection=MessageSelection("round-robin"))
        fixed = _affine_cfg(gain=2.0, message_selection=MessageSelection("fixed", 3))
        for cfg in (_thermal_cfg(), _affine_cfg(gain=2.0), shifted, round_robin, fixed):
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "cfg,echo",
        [
            (
                _thermal_cfg(),
                '{"channel": {"type": "thermal", "eta": 0.5, "n_th": 1.0, "n_s": 3.0}, "tap": {"variance": 1.0}, '
                '"n": 4, "rate": 0.5, "trials": 2000, "root_seed": 161803, "message_selection": "uniform-random"}',
            ),
            (
                ExperimentConfig(
                    channel=AffineChannel(2.0, NoiseModel("uniform", 1.5, -0.25)),
                    n_s=3.0,
                    tap=EveTap(0.5),
                    n=3,
                    rate=0.4,
                    trials=10,
                    message_selection=MessageSelection("round-robin"),
                ),
                '{"channel": {"type": "affine", "gain": 2.0, "noise": {"family": "uniform", "variance": 1.5, '
                '"mean": -0.25}}, "n_s": 3.0, "tap": {"variance": 0.5}, "n": 3, "rate": 0.4, "trials": 10, '
                '"root_seed": 0, "message_selection": "round-robin"}',
            ),
            (
                _affine_cfg(message_selection=MessageSelection("fixed", 3)),
                '{"channel": {"type": "affine", "gain": 1.0, "noise": {"family": "two-point", "variance": 1.0, '
                '"mean": 0.0}}, "n_s": 3.0, "tap": {"variance": 1.0}, "n": 4, "rate": 0.5, "trials": 2000, '
                '"root_seed": 161803, "message_selection": {"type": "fixed", "m": 3}}',
            ),
        ],
    )
    def test_config_echo_pinned(self, cfg, echo):
        # key order included: the echo is part of every report's bytes
        assert json.dumps(cfg.to_dict()) == echo

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d["channel"].update(alpha=2),
            lambda d: d["tap"].update(bias=0.0),
            lambda d: d.update(n_s=3.0),  # n_s is inside the thermal channel
            lambda d: d.update(message_selection={"type": "fixed"}),
            lambda d: d["channel"].update(type="bosonic"),
            lambda d: d.pop("rate"),
            # the codebook is validated when the config is built, not inside a chunk
            lambda d: d.update(message_selection={"type": "fixed", "m": 1000}),
            lambda d: d.update(n=100),  # 2^50 messages
            lambda d: d.update(n=10**400),  # n * rate beyond double range
        ],
    )
    def test_strict_rejection(self, mutate):
        obj = json.loads(json.dumps(THERMAL_CFG_DICT))
        mutate(obj)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "noise,message",
        [
            ({"family": "gaussian", "variance": 1.0, "skew": 2}, r"unknown fields in noise: \['skew'\]"),
            ({"family": "gaussian"}, "noise requires 'variance'"),
        ],
    )
    def test_noise_object_strictness(self, noise, message):
        obj = _affine_cfg().to_dict()
        obj["channel"]["noise"] = noise
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(obj)

    def test_affine_requires_top_level_ns(self):
        obj = {
            "channel": {"type": "affine", "gain": 1.0, "noise": {"family": "gaussian", "variance": 1.0}},
            "tap": {"variance": 1.0},
            "n": 2,
            "rate": 0.5,
            "trials": 5,
        }
        with pytest.raises(ConfigError, match="n_s"):
            ExperimentConfig.from_dict(obj)

    def test_message_selection_forms(self):
        assert MessageSelection("fixed", 3).fixed_m == 3
        with pytest.raises(ConfigError):
            MessageSelection("fixed")
        obj = dict(THERMAL_CFG_DICT, message_selection={"type": "fixed", "m": 2})
        assert ExperimentConfig.from_dict(obj).message_selection == MessageSelection("fixed", 2)

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            _thermal_cfg(trials=0)
        with pytest.raises(ConfigError):
            _thermal_cfg(n=0)
        with pytest.raises(ConfigError):
            _thermal_cfg(rate=0.0)

    def test_config_holds_the_channel_once(self):
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert fields == ["channel", "n_s", "tap", "n", "rate", "trials", "root_seed", "message_selection"]
        # the config echo is asdict(channel): gain and noise must stay out of the dataclass fields
        assert [f.name for f in dataclasses.fields(ThermalWiretapParams)] == ["eta", "n_th"]

    def test_schedule_holds_no_gain(self):
        # the recursion reads (n, n_s, sigma2) alone; the kernel divides each y by its channel's gain
        def fields(cfg):
            schedule = cfg.schedule()
            return {f.name: np.asarray(getattr(schedule, f.name)).tobytes() for f in dataclasses.fields(schedule)}

        unit, *signed = (fields(_affine_cfg("gaussian", gain)) for gain in (1.0, -1.5, 2.0))
        assert list(unit) == ["blocklength", "sigma2", "gamma", "k_gain", "v", "log2_v"]
        assert signed == [unit, unit]
        thermal = dataclasses.replace(_thermal_cfg(), channel=ThermalWiretapParams(eta=0.3, n_th=2.0))
        assert fields(thermal) == fields(_affine_cfg("gaussian", variance=thermal.channel.noise.variance))

    def test_non_integer_counts_rejected(self):
        for field, value in (("n", 4.7), ("trials", "2000"), ("root_seed", True)):
            obj = json.loads(json.dumps(THERMAL_CFG_DICT))
            obj[field] = value
            with pytest.raises(ConfigError, match="integer"):
                ExperimentConfig.from_dict(obj)
        # integral floats are fine (a common hand-edited-JSON artifact)
        obj = json.loads(json.dumps(THERMAL_CFG_DICT))
        obj["n"] = 4.0
        assert ExperimentConfig.from_dict(obj).n == 4

    @pytest.mark.parametrize(
        "overrides,what",
        [
            # 300 trials at n = 4: log2 300 + 4 log2(gain 37 sqrt 5) reads 1017.7 at gain 2^246
            (dict(gain=2.0**247), "trials * (gain (theta_n - theta_m))^4 of the decoder sums"),
            (dict(gain=1e300, variance=1e300), "trials * (gain (theta_n - theta_m))^4 of the decoder sums"),
            (dict(n_s=1e200), "trials * x^4 of the power sums"),
            (dict(gain=2.0**510, variance=2.0**-600, n=1), "trials * y^2 of the feedback co-moment"),
            # C = 1 bit, so gamma_n = sqrt(3) 2^(n-1)
            (dict(n=1021, rate=0.02), "the schedule gain gamma_n"),
        ],
    )
    def test_overflowing_run_is_rejected(self, overrides, what):
        with pytest.raises(ConfigError, match=r"^the run would overflow: .* reaches 2\^\d+, above 2\^1020$") as info:
            _affine_cfg("gaussian", trials=300, **overrides)
        assert what in str(info.value)

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "two-point", "shifted-exponential"])
    @pytest.mark.parametrize("overrides", [dict(gain=2.0**246), dict(n=1020, rate=0.02)])
    def test_runs_at_the_limit_stay_finite(self, family, overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow on the way
            json.loads(run_experiment(_affine_cfg(family, trials=300, **overrides)).to_json())


def _one_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """The batch kernel on the one-trial slice [trial, trial + 1)."""
    return _chunk(cfg, trial, trial + 1)


class TestOneTrialSlice:
    def test_noiseless_stub_decodes(self):
        cfg = _affine_cfg(family="gaussian")
        cfg = dataclasses.replace(cfg, channel=AffineChannel(1.0, NoiseModel("gaussian", 1e-30)))
        for t in range(8):
            out = _one_trial(cfg, t)
            assert out["m_hat"][0] == out["m"][0]

    def test_fixed_message_out_of_range(self):
        with pytest.raises(ConfigError, match="fixed_m"):
            dataclasses.replace(_thermal_cfg(), message_selection=MessageSelection("fixed", 1000))


@pytest.mark.byte_pinned
class TestBatchEqualsScalar:
    def test_chunk_rows_are_trial_pure(self):
        cfg = _thermal_cfg(trials=300)
        full = _chunk(cfg, 0, 300)
        tail = _chunk(cfg, 150, 300)
        for key in ("m", "m_hat", "theta_m", "theta_n"):
            assert np.array_equal(full[key][150:], tail[key])
        for key in ("x", "y"):  # round-major: one column per trial
            assert np.array_equal(full[key][:, 150:], tail[key])

    @pytest.mark.parametrize(
        "factory",
        [
            _thermal_cfg,
            lambda: _affine_cfg("uniform", 2.0),
            _high_seed_cfg,
            _two_point_mean_cfg,
            _exponential_cfg,
            _scaled_tap_cfg,
        ],
    )
    def test_scalar_path_bitwise(self, factory):
        # oracle: the round-by-round state machines on per-trial Philox lanes; every
        # noise family, so the copysign and log1p maps read each position as the kernel does
        cfg = factory()
        codebook, schedule = cfg.codebook(), cfg.schedule()
        out = _chunk(cfg, 0, cfg.trials)
        transcripts = collect_transcripts(cfg)
        for trial in (0, 1, 31, 32, 77, 1999):
            u = RngLane(cfg.root_seed, trial, ROLE_MESSAGE).uniforms(1)[0]
            m = min(1 + int(u * codebook.message_count), codebook.message_count)
            oracle = run_protocol(m, codebook, schedule, cfg.channel, cfg.tap, TrialLanes(cfg.root_seed, trial))
            assert out["m"][trial] == m
            assert out["m_hat"][trial] == oracle.m_hat
            assert out["theta_m"][trial] == oracle.theta_m
            assert out["theta_n"][trial] == oracle.theta_n
            assert np.array_equal(out["x"][:, trial], oracle.x)
            assert np.array_equal(out["y"][:, trial], oracle.y)

            assert np.array_equal(_one_trial(cfg, trial)["x"][:, 0], oracle.x)
            t = transcripts[trial]
            for field in dataclasses.fields(t):
                assert np.array_equal(getattr(t, field.name), getattr(oracle, field.name)), field.name

    @pytest.mark.parametrize("factory", [_thermal_cfg, lambda: _affine_cfg("uniform", 2.0)])
    def test_kernel_writes_y_over_noise(self, factory):
        # which buffer a caller may reuse: y is the noise buffer itself, and x the
        # caller's own buffer if it passes one; else the kernel keeps no x at all
        cfg = factory()
        forward, u = harness._chunk_draws((cfg,), 0, 300)
        noise = harness._noise_in_place(cfg.channel.noise, forward)
        kept = harness._simulate_chunk(cfg, 0, noise.copy(), u, x := np.empty(noise.shape))
        out = harness._simulate_chunk(cfg, 0, noise, u)
        assert out["y"] is noise and out["x"] is None
        assert kept["x"] is x and not np.shares_memory(x, kept["y"])
        for key in ("m_hat", "theta_n", "y", "power_mean", "power_m2"):
            assert np.array_equal(out[key], kept[key]), key

    def test_largest_codebook(self):
        # 2^40 messages: the batch path must not build the full midpoint table
        cfg = _thermal_cfg(n=40, rate=1.0, trials=64)
        codebook = cfg.codebook()
        assert codebook.message_count == 2**40
        assert run_experiment(cfg).realized_rate == 1.0
        u = RngLane(cfg.root_seed, 5, ROLE_MESSAGE).uniforms(1)[0]
        m = min(1 + int(u * codebook.message_count), codebook.message_count)
        oracle = run_protocol(m, codebook, cfg.schedule(), cfg.channel, cfg.tap, TrialLanes(cfg.root_seed, 5))
        one = _one_trial(cfg, 5)
        assert (one["m"][0], one["m_hat"][0], one["theta_n"][0]) == (oracle.m, oracle.m_hat, oracle.theta_n)

    def test_transcripts_match_chunk(self):
        # past a report's chunk boundary, the transcripts are that chunk's trials, in order
        cfg = _affine_cfg("shifted-exponential", 0.5, trials=CHUNK_TRIALS + 2, n=2)
        transcripts = collect_transcripts(cfg)
        out = _chunk(cfg, CHUNK_TRIALS - 1, CHUNK_TRIALS + 2)
        assert len(transcripts) == CHUNK_TRIALS + 2
        for j, t in enumerate(transcripts[CHUNK_TRIALS - 1 :]):
            assert (t.m, t.m_hat, t.theta_n) == (out["m"][j], out["m_hat"][j], out["theta_n"][j])
            assert np.array_equal(t.x, out["x"][:, j])
            assert np.array_equal(t.y, out["y"][:, j])

    def test_transcripts_stop_at_the_limit(self):
        cfg = _thermal_cfg(trials=TRANSCRIPT_LIMIT + 1, n=1)
        assert TRANSCRIPT_LIMIT == 10_000 and len(collect_transcripts(cfg)) == TRANSCRIPT_LIMIT

    @pytest.mark.parametrize("selection", [MessageSelection("round-robin"), MessageSelection("fixed", 2)])
    def test_selection_policies_agree(self, selection):
        cfg = dataclasses.replace(_thermal_cfg(trials=64), message_selection=selection)
        out = _chunk(cfg, 0, 64)
        for trial in (0, 5, 63):
            assert _one_trial(cfg, trial)["m"][0] == out["m"][trial]


def _done(fn, *args):
    """A fake pool's ``submit``: the future of ``fn(*args)``, already run."""
    future = concurrent.futures.Future()
    future.set_result(fn(*args))
    return future


class TestRunExperiment:
    def test_reproducible_and_thread_invariant(self):
        cfg = _thermal_cfg(trials=CHUNK_TRIALS + 500, n=3)
        r1 = run_experiment(cfg, threads=1)
        r2 = run_experiment(cfg, threads=1)
        r3 = run_experiment(cfg, threads=3)
        assert r1.to_json() == r2.to_json() == r3.to_json()

    def test_a_config_tuple_gives_each_config_its_own_bytes(self):
        # thermal and affine channels, all three selection policies, n from 1 to 12,
        # and one- and three-chunk trial counts, in one call
        long = 2 * CHUNK_TRIALS + 77
        cfgs = (
            _thermal_cfg(n=1, trials=300),
            _affine_cfg("uniform", 2.0, n=12, trials=long, message_selection=MessageSelection("round-robin")),
            _affine_cfg("two-point", 2.0, n=5, trials=long),
            _thermal_cfg(n=7, trials=long, message_selection=MessageSelection("fixed", 3)),
            _affine_cfg("uniform", 2.0, n=3, trials=300),
            _thermal_cfg(n=12, trials=long),
        )
        alone = [run_experiment(cfg).to_json() for cfg in cfgs]
        for threads in (1, 3):
            assert [r.to_json() for r in run_experiment(cfgs, threads=threads)] == alone

    def test_a_tuple_has_one_root_seed(self):
        cfgs = (_thermal_cfg(trials=10), _thermal_cfg(trials=10, root_seed=SEED + 1))
        with pytest.raises(ConfigError) as info:
            run_experiment(cfgs)
        assert str(info.value) == f"configs run together must share one root seed, not 2: {[SEED, SEED + 1]}"

    def test_one_family_with_another_variance_or_mean_maps_its_own_noise(self):
        # the largest config is Gaussian with variance 1 and mean 0; Gaussian
        # configs with another variance or mean have another noise model, so
        # they must not read the noise mapped over the shared draws
        long = 2 * CHUNK_TRIALS + 77
        cfgs = (
            _affine_cfg("gaussian", variance=2.0, n=5, trials=700),
            _affine_cfg("gaussian", mean=0.5, n=3, trials=CHUNK_TRIALS + 5),
            _affine_cfg("gaussian", n=6, trials=300),
            _affine_cfg("gaussian", n=4, trials=long),
        )
        alone = [run_experiment(cfg).to_json() for cfg in cfgs]
        for threads in (1, 3):
            assert [r.to_json() for r in run_experiment(cfgs, threads=threads)] == alone

    def test_a_tuple_of_shared_and_unshared_noise_models(self):
        # the largest config (most trials) is thermal at n = 4, so a span maps its
        # Gaussian noise once over the shared draws. A thermal config and a gain-2
        # affine Gaussian one (the same noise model) have more rounds but fewer
        # trials, so the map must cover their rows too; the uniform config has the
        # most rounds of all and maps a copy of the raw draws
        long = 2 * CHUNK_TRIALS + 77
        cfgs = (
            _affine_cfg("uniform", 2.0, n=12, trials=300),
            _thermal_cfg(n=9, trials=CHUNK_TRIALS + 5),
            _affine_cfg("gaussian", 2.0, n=7, trials=700),
            _thermal_cfg(n=2, trials=500),
            _thermal_cfg(n=4, trials=long),
        )
        alone = [run_experiment(cfg).to_json() for cfg in cfgs]
        for threads in (1, 3):
            assert [r.to_json() for r in run_experiment(cfgs, threads=threads)] == alone

    def test_pool_never_outnumbers_chunks(self, monkeypatch):
        # a fork pool starts all max_workers processes at the first submit; this fake starts none
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            submit = staticmethod(_done)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        cfg = _thermal_cfg(trials=CHUNK_TRIALS + 1, n=2)
        serial = run_experiment(cfg).to_json()
        assert harness._pool is None
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        assert run_experiment(cfg, threads=5000).to_json() == serial
        assert sizes == [2]

    def test_each_run_forks_and_joins_its_own_pool(self, forked_pools):
        # 3 chunks, so each run gets exactly the workers it asks for
        cfg = _thermal_cfg(trials=2 * CHUNK_TRIALS + 1, n=2)
        serial = run_experiment(cfg).to_json()
        for workers in (2, 2, 3, 2):
            assert run_experiment(cfg, threads=workers).to_json() == serial
            assert multiprocessing.active_children() == []
        assert forked_pools == [(2, 0), (2, 0), (3, 0), (2, 0)]

    def test_runs_in_a_block_use_its_pool(self, forked_pools):
        cfg = _thermal_cfg(trials=2 * CHUNK_TRIALS + 1, n=2)
        serial = run_experiment(cfg).to_json()
        with harness.worker_pool(2) as pool:
            assert harness._pool is pool
            for threads in (2, 3, 5000):
                assert run_experiment(cfg, threads=threads).to_json() == serial
                assert len(multiprocessing.active_children()) == 2
        assert forked_pools == [(2, 0)]

    def test_one_chunk_forks_no_pool(self, forked_pools):
        cfg = _thermal_cfg(trials=CHUNK_TRIALS, n=2)
        assert run_experiment(cfg, threads=4).to_json() == run_experiment(cfg).to_json()
        assert forked_pools == []

    def test_workers_run_at_background_priority(self):
        parent = os.getpriority(os.PRIO_PROCESS, 0)
        with harness.worker_pool(2) as pool:
            assert pool.submit(os.getpriority, os.PRIO_PROCESS, 0).result() == 19
        assert os.getpriority(os.PRIO_PROCESS, 0) == parent

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool keeps the platform's default start method")
    def test_pool_forks_whatever_the_process_default(self):
        # a forkserver worker is the fork server's child; a forked one is this process's
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            with harness.worker_pool(2) as pool:
                assert pool.submit(os.getppid).result() == os.getpid()
        finally:
            multiprocessing.set_start_method(default, force=True)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_report_bytes_do_not_depend_on_the_start_method(self, method):
        # a spawn or forkserver worker imports the package afresh, a forked one inherits
        # the parent's; 3 spans of two configs, one with a nonzero noise mean
        cfgs = (
            _thermal_cfg(n=3, trials=2 * CHUNK_TRIALS + 77),
            dataclasses.replace(_exponential_cfg(), n=5, trials=CHUNK_TRIALS + 5),
        )
        serial = [run_experiment(cfg).to_json() for cfg in cfgs]
        starts = range(0, 2 * CHUNK_TRIALS + 77, CHUNK_TRIALS)
        context = multiprocessing.get_context(method)
        with concurrent.futures.ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            sums = harness._fold(pool.map(harness._span_moments, itertools.repeat(cfgs), starts))
        assert [harness._report(cfg, sums[j]).to_json() for j, cfg in enumerate(cfgs)] == serial

    def test_failed_pool_is_dropped(self, monkeypatch):
        closed = []

        class FailingPool:
            def __init__(self, max_workers, **kwargs):
                pass

            submit = staticmethod(_done)

            def map(self, fn, *iterables):
                raise RuntimeError("worker died")

            def shutdown(self, cancel_futures=False):
                closed.append(cancel_futures)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FailingPool)
        with pytest.raises(RuntimeError, match="worker died"):
            run_experiment(_thermal_cfg(trials=CHUNK_TRIALS + 1, n=2), threads=2)
        assert harness._pool is None and closed == [True]

    @pytest.mark.skipif(sys.platform != "linux", reason="the pool forks its workers on Linux only")
    def test_a_pool_that_fails_to_start_stops_the_workers_it_forked(self):
        # the second fork raises: a worker left from the first would keep the interpreter from exiting
        code = textwrap.dedent(
            """
            import multiprocessing, os
            from skwiretap import harness

            real_fork, forks = os.fork, []

            def failing_fork():
                forks.append(1)
                if len(forks) == 2:
                    raise BlockingIOError(11, "Resource temporarily unavailable")
                return real_fork()

            os.fork = failing_fork
            try:
                with harness.worker_pool(2):
                    pass
            except BlockingIOError:
                print("raised", len(forks), multiprocessing.active_children())
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        # a session of its own, so a hung run and any worker it left are killed together
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the interpreter did not exit within 10 s of a pool that failed to start")
        assert (proc.returncode, out) == (0, "raised 2 []\n")

    def test_reference_report_values(self):
        report = run_experiment(_thermal_cfg(trials=30_000, n=6))
        assert report.error_count == 0  # bound is astronomically small here
        assert report.realized_rate == 0.5
        assert report.effective_rate == pytest.approx(6 / 7 * 0.5, rel=1e-15, abs=0.0)
        assert report.leakage is not None
        expected = leakage_budget(0.5, 1.0, 3.0, 1.0, 1.0, 6)
        assert report.leakage.per_mode_bits == expected.per_mode_bits
        ratio = report.empirical_var_theta / report.predicted_var_theta
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_deviation_scale_matches_prediction(self):
        # n=4: the decoder statistic concentrates at variance 2^-8 around theta(m)
        cfg = _thermal_cfg(n=4, rate=0.95, trials=20_000)
        report = run_experiment(cfg)
        assert report.predicted_var_theta == pytest.approx(2.0**-8, rel=1e-12, abs=0.0)
        assert report.empirical_var_theta / report.predicted_var_theta == pytest.approx(1.0, abs=0.1)

    def test_leakage_scales_with_blocklength(self):
        r4 = run_experiment(_thermal_cfg(trials=10, n=4))
        r9 = run_experiment(_thermal_cfg(trials=10, n=9))
        assert r4.leakage.total_bits == r9.leakage.total_bits
        assert r4.leakage.per_mode_bits * 5 == pytest.approx(r9.leakage.per_mode_bits * 10, rel=1e-12, abs=0.0)

    def test_affine_config_has_no_leakage(self):
        report = run_experiment(_affine_cfg(trials=50))
        assert report.leakage is None

    def test_bound_exponent_beyond_double_range(self):
        # 2^(2 n (C - R) - 1) overflows a double at n = 600, R = 0.05: the SK bound is exactly 0
        report = run_experiment(_thermal_cfg(n=600, rate=0.05, trials=200))
        assert report.analytic_error_bound == 0.0 and report.error_count == 0

    def test_error_counts_decay_with_blocklength(self):
        # statistical monotonicity: violations allowed only inside overlapping CIs
        reports = [run_experiment(_thermal_cfg(n=n, rate=0.7, trials=30_000)) for n in (2, 4, 6, 8)]
        for a, b in zip(reports, reports[1:]):
            overlap = a.error_rate_ci[0] <= b.error_rate_ci[1] and b.error_rate_ci[0] <= a.error_rate_ci[1]
            assert b.error_count <= a.error_count or overlap
        assert reports[0].error_count > reports[-1].error_count

    def test_round_robin_covers_codebook(self):
        cfg = dataclasses.replace(
            _thermal_cfg(trials=64, n=2, rate=1.0), message_selection=MessageSelection("round-robin")
        )
        out = _chunk(cfg, 0, 64)  # M = 2^(2*1) = 4 messages, cycled
        assert set(out["m"]) == {1, 2, 3, 4}
        assert np.array_equal(out["m"][:8], [1, 2, 3, 4, 1, 2, 3, 4])


class TestWilson:
    def test_frozen_oracle_values(self):
        # frozen from a 40-digit quadratic-root solve of (p - p_hat)^2 = z^2 p(1-p)/n
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40382982859014715, abs=1e-14)
        assert hi == pytest.approx(0.59617017140985285, abs=1e-14)
        assert hi - lo == pytest.approx(0.19234034281970569, abs=1e-14)

    def test_boundary_cases(self):
        assert wilson_interval(0, 100)[0] == 0.0
        assert wilson_interval(100, 100)[1] == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    @given(trials=st.integers(min_value=1, max_value=10_000), frac=st.floats(min_value=0, max_value=1))
    def test_interval_contains_estimate(self, trials, frac):
        successes = min(trials, int(frac * trials))
        lo, hi = wilson_interval(successes, trials)
        assert lo <= successes / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


class TestCompareBounds:
    def test_analytic_bound_choice(self):
        # the acceptance suite reads these through compare_bounds instead of rebuilding them
        thermal = run_experiment(_thermal_cfg(trials=200))
        query = BoundQuery(n_s=3.0, sigma2=1.0, n=4, rate=0.5)
        assert thermal.analytic_error_bound == sk_error_bound(query) > 0.0
        assert thermal.analytic_error_bound_kind == "sk"
        affine = run_experiment(_affine_cfg(gain=2.0, trials=200))
        query = BoundQuery(n_s=3.0, sigma2=1.0, n=4, rate=0.5)
        assert affine.analytic_error_bound == chebyshev_error_bound(2.0, query)
        assert affine.analytic_error_bound_kind == "chebyshev"

    def test_error_bound_uses_the_realized_rate(self):
        # rate 0.5 at n = 1 still needs M = 2 messages, so the realized rate is 1.0
        cfg = ExperimentConfig(
            channel=ThermalWiretapParams(eta=0.7, n_th=0.5),
            n_s=2.0,
            tap=EveTap(1.0),
            n=1,
            rate=0.5,
            trials=CHUNK_TRIALS + 301,
            root_seed=577215,
        )
        report = run_experiment(cfg)
        assert report.realized_rate == 1.0
        query = BoundQuery(n_s=2.0, sigma2=cfg.channel.noise.variance, n=1, rate=1.0)
        assert report.analytic_error_bound == sk_error_bound(query)
        # the exact error probability of two messages, Q(half_gap / sd(theta)), lies under the bound
        exact = 0.5 * math.erfc(cfg.codebook().half_gap / math.sqrt(2.0 * report.predicted_var_theta))
        assert exact == pytest.approx(0.00841, rel=1e-3, abs=0.0)
        assert exact < report.analytic_error_bound
        assert compare_bounds(report).rows[0].passed

    def test_reference_config_passes(self):
        verdict = compare_bounds(run_experiment(_thermal_cfg(trials=30_000, n=6)))
        assert verdict.passed
        assert "overall: pass" in verdict.format_table()

    def test_negative_control(self):
        report = run_experiment(_thermal_cfg(trials=30_000, n=6))
        report.predicted_var_theta *= 2.0
        verdict = compare_bounds(report)
        assert not verdict.passed
        failing = [r.quantity for r in verdict.rows if not r.passed]
        assert failing == ["var_theta_ratio"]

    def test_predicted_variance_underflow(self):
        # gain^2 var 2^(-2nC) is below the smallest double at n=600: the row fails instead of raising
        report = run_experiment(_thermal_cfg(n=600, rate=0.05, trials=200))
        assert report.predicted_var_theta == 0.0
        row = next(r for r in compare_bounds(report).rows if r.quantity == "var_theta_ratio")
        assert row.empirical is None and not row.passed

    def test_gaussianity_rows_omitted_for_non_gaussian(self):
        verdict = compare_bounds(run_experiment(_affine_cfg(trials=5000, n=3)))
        names = {r.quantity for r in verdict.rows}
        assert "theta_skewness" not in names and "theta_excess_kurtosis" not in names
        assert verdict.passed


class TestReportSerialization:
    def test_schema_validation(self):
        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "src" / "skwiretap" / "report_schema.json").read_text()
        )
        for cfg in (_thermal_cfg(trials=200), _affine_cfg(gain=2.0, trials=200)):
            jsonschema.validate(json.loads(run_experiment(cfg).to_json()), schema)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_to_json_is_strict(self, value):
        report = run_experiment(_thermal_cfg(trials=100))
        report.empirical_var_theta = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()

    def test_flat_row_fields(self):
        row = report_flat_row(run_experiment(_thermal_cfg(trials=100)))
        assert row["sigma2"] == 1.0 and row["p_h"] == 1.0
        assert row["n"] == 4 and row["trials"] == 100
        assert not math.isnan(row["leakage_per_mode_bits"])

    def test_transcript_csv_shape(self):
        cfg = _thermal_cfg(trials=3, n=2)
        buffer = io.StringIO()
        write_transcripts_csv(collect_transcripts(cfg), buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "trial,i,x,n,y"
        assert len(lines) == 1 + 3 * 4  # header + 3 trials x (3 rounds + final)
        final = lines[4].split(",")
        assert final[1] == "final" and int(final[3]) >= 1
