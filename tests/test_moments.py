"""The chunk-sum fold behind every report statistic.

``run_experiment`` reduces each chunk to counts, means and central sums and
merges them in chunk order. These tests hold the fold against the statistics
of the full per-trial arrays, rebuilt here from the batch kernel, and check
that the bytes do not depend on the worker count or the chunk boundaries, that
memory does not grow with the trial count, and that an undefined statistic is
reported as null with a reason.
"""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kurtosis, skew

from skwiretap import acceptance
from skwiretap.channels import AffineChannel, EveTap, NoiseModel, ThermalWiretapParams
from skwiretap.harness import (
    CHUNK_TRIALS,
    Diagnostics,
    ExperimentConfig,
    MessageSelection,
    _fold,
    _chunk,
    _Moments,
    _span_moments,
    compare_bounds,
    report_flat_row,
    run_experiment,
    wilson_interval,
)
from test_golden import GOLDEN

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "src" / "skwiretap" / "report_schema.json").read_text())

ORACLE_CONFIGS = {
    **{name: factory for name, (factory, _) in GOLDEN.items()},
    # feedback rounds sit near 1e4 with unit spread: sum(y y^T) - N mean mean^T cancels
    "gaussian_mean_1e4": lambda: ExperimentConfig(
        channel=AffineChannel(1.0, NoiseModel("gaussian", 1.0, 1e4)),
        n_s=3.0,
        tap=EveTap(1.0),
        n=6,
        rate=0.5,
        trials=2 * CHUNK_TRIALS + 5,
        root_seed=99,
    ),
    # X_1^2 is constant up to rounding: its standard error is float dust
    "two_point_dust": lambda: ExperimentConfig(
        channel=AffineChannel(1.0, NoiseModel("two-point", 1.0)),
        n_s=3.0,
        tap=EveTap(1.0),
        n=8,
        rate=0.5,
        trials=3 * CHUNK_TRIALS + 1,
        root_seed=5,
    ),
}


def _array_report(cfg: ExperimentConfig, report):
    """``report`` with every statistic recomputed from the full per-trial arrays.

    Chunk rows are trial-pure, so one kernel call over all trials gives the
    arrays a chunked run sees; the reductions are those of numpy and
    scipy.stats over them.
    """
    out = _chunk(cfg, 0, cfg.trials)
    x2, y_rounds, trials = np.square(out["x"].T), out["y"][1:].T, cfg.trials
    theta_dev = cfg.channel.gain * (out["theta_n"] - out["theta_m"])
    errors = int(np.count_nonzero(out["m"] != out["m_hat"]))
    corr = np.atleast_2d(np.corrcoef(y_rounds.T))  # a 1x1 matrix at n = 1
    return dataclasses.replace(
        report,
        error_count=errors,
        error_rate=errors / trials,
        error_rate_ci=wilson_interval(errors, trials),
        empirical_var_theta=float(np.var(theta_dev, ddof=1)),
        power_mean=x2.mean(axis=0),
        power_se=x2.std(axis=0, ddof=1) / math.sqrt(trials),
        diag=Diagnostics(
            max_abs_offdiag_corr=float(np.max(np.abs(corr - np.diag(np.diag(corr))))),
            theta_skewness=float(skew(theta_dev)),
            theta_excess_kurtosis=float(kurtosis(theta_dev)),
        ),
    )


MOMENT_FIELDS = {
    ("results", "empirical_var_theta"),
    ("diagnostics", "max_abs_offdiag_corr"),
    ("diagnostics", "theta_skewness"),
    ("diagnostics", "theta_excess_kurtosis"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_fold_matches_array_statistics(name):
    cfg = ORACLE_CONFIGS[name]()
    report = run_experiment(cfg)
    folded, oracle = report.to_dict(), _array_report(cfg, report).to_dict()
    for section, fields in oracle.items():
        if section == "power_audit":
            continue
        if not isinstance(fields, dict) or section == "config":
            assert folded[section] == fields, section
            continue
        for key, value in fields.items():
            if (section, key) in MOMENT_FIELDS:
                assert folded[section][key] == pytest.approx(value, rel=1e-9, abs=0.0), key
            else:
                assert folded[section][key] == value, key
    # a round whose power is constant up to rounding has a standard error of
    # float dust; there the bound is the absolute floor compare_bounds forgives
    dust = 1e-12 * max(1.0, cfg.n_s)
    for got, want in zip(folded["power_audit"]["rounds"], oracle["power_audit"]["rounds"]):
        assert got["mean_power"] == pytest.approx(want["mean_power"], rel=1e-9, abs=0.0)
        assert got["standard_error"] == pytest.approx(want["standard_error"], rel=1e-9, abs=dust)
    assert compare_bounds(report).passed


def test_offset_stress_defeats_the_naive_comoment():
    # the stress config is a real one: the textbook one-pass co-moment misses the 1e-9 bound
    cfg = ORACLE_CONFIGS["gaussian_mean_1e4"]()
    y = _chunk(cfg, 0, cfg.trials)["y"][1:].T
    mean = y.mean(axis=0)
    naive = np.einsum("ij,ik->jk", y, y) - len(y) * np.outer(mean, mean)
    std = np.sqrt(np.diagonal(naive))
    naive_corr = naive / std[:, None] / std[None, :]
    np.fill_diagonal(naive_corr, 0.0)
    corr = np.corrcoef(y.T)
    oracle = np.max(np.abs(corr - np.diag(np.diag(corr))))
    assert abs(np.max(np.abs(naive_corr)) / oracle - 1.0) > 1e-9
    assert run_experiment(cfg).diag.max_abs_offdiag_corr == pytest.approx(oracle, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("count,rounds", [(1, 2), (2, 3), (9, 2), (CHUNK_TRIALS + 1, 41)])
def test_chunk_sums_equal_the_round_major_reductions(count, rounds):
    # each sum is numpy's own reduction of the round-major rows, so the bits
    # are those of the plain expressions below
    rng = np.random.default_rng(count)
    x = rng.normal(3.0, 2.0, size=(rounds, count))
    y = rng.normal(-1.0, 2.0, size=(rounds - 1, count))
    x2 = x * x
    mean = x2.mean(axis=1)
    yc = y - y.mean(axis=1)[:, None]
    stats = _Moments.of(0, np.zeros(count), x.copy(), y.copy())
    assert np.array_equal(stats.power_mean, mean)
    assert np.array_equal(stats.power_m2, ((x2 - mean[:, None]) ** 2).sum(axis=1))
    assert np.array_equal(stats.y_mean, y.mean(axis=1))
    assert np.array_equal(stats.y_comoment, np.einsum("ik,jk->ij", yc, yc))
    assert np.array_equal(stats.y_comoment, stats.y_comoment.T)


def _chunk_of(data: np.ndarray) -> _Moments:
    return _Moments.of(0, data[:, 0], data[:, 1:3].T.copy(), data[:, 3:].T.copy())


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=6),
    offset=st.sampled_from([0.0, -3.0, 1e4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_merge_equals_one_pass(sizes, offset, seed):
    # skewed columns with an offset: every merge term of Chan and Pebay is exercised
    data = offset + np.random.default_rng(seed).exponential(size=(sum(sizes), 6))
    bounds = np.cumsum([0] + sizes)
    folded = _fold({0: _chunk_of(data[a:b])} for a, b in zip(bounds, bounds[1:]))[0]
    whole = _chunk_of(data)
    assert folded.count == whole.count
    for name in ("theta_mean", "power_mean", "y_mean"):
        np.testing.assert_allclose(getattr(folded, name), getattr(whole, name), rtol=1e-12)
    # central sums: relative to the square, cube and fourth power of the spread
    spread = np.sqrt(whole.theta_m2 / whole.count)
    for k, name in ((2, "theta_m2"), (3, "theta_m3"), (4, "theta_m4")):
        scale = whole.count * spread**k
        assert abs(getattr(folded, name) - getattr(whole, name)) <= 1e-9 * scale, name
    np.testing.assert_allclose(folded.power_m2, whole.power_m2, rtol=1e-9)
    np.testing.assert_allclose(folded.y_comoment, whole.y_comoment, rtol=1e-9, atol=1e-9 * np.max(whole.y_comoment))


def _thermal(trials: int, n: int = 3, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        channel=ThermalWiretapParams(eta=0.5, n_th=1.0), n_s=3.0, tap=EveTap(1.0), n=n, rate=0.5, trials=trials,
        root_seed=424242, **kwargs,
    )


@pytest.mark.parametrize(
    "trials", [2, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 5]
)
def test_bytes_identical_across_workers_and_chunk_boundaries(trials):
    cfg = _thermal(trials)
    serial = run_experiment(cfg, threads=1).to_json()
    assert run_experiment(cfg, threads=2).to_json() == serial
    assert run_experiment(cfg, threads=3).to_json() == serial


def _peak_traced_bytes(trials: int) -> int:
    cfg = _thermal(trials, n=20, message_selection=MessageSelection("round-robin"))
    tracemalloc.start()
    try:
        run_experiment(cfg, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_flat_in_trials():
    # numpy reports its buffers to tracemalloc; 8x the trials must not raise the
    # peak by more than one chunk's x and y arrays
    n = 20
    one_chunk = 2 * CHUNK_TRIALS * (n + 1) * 8
    small = _peak_traced_bytes(2 * CHUNK_TRIALS)
    large = _peak_traced_bytes(16 * CHUNK_TRIALS)
    assert large <= small + one_chunk, (small, large)


def _traced_span_peak(cfgs) -> int:
    """tracemalloc peak of the span of ``cfgs`` at start 0."""
    tracemalloc.start()
    try:
        _span_moments(cfgs, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _span_peak(rounds) -> int:
    """tracemalloc peak of one span over thermal configs with these n."""
    return _traced_span_peak(tuple(_thermal(CHUNK_TRIALS, n=n) for n in rounds))


def test_chunk_peak_memory():
    # round-major and in place: the draws, the noise and x share one buffer and
    # y has one more, so a chunk peaks near two arrays of (n + 1) rounds, not four
    n = 40
    peak = _span_peak((n,))
    assert peak <= 3 * CHUNK_TRIALS * (n + 1) * 8, peak


@pytest.mark.parametrize("rounds", [(2, 40), (40, 2)])
def test_span_maps_the_largest_config_in_place(rounds):
    # the n = 40 config maps the shared draws themselves, in either order; a
    # copy of its rows beside the draws would be a third array of 41 rounds
    n = max(rounds)
    peak = _span_peak(rounds)
    assert peak <= 3 * CHUNK_TRIALS * (n + 1) * 8, peak


def test_acceptance_span_peak_memory():
    # only the largest config's noise model is mapped over the shared draws; the
    # other models each map a copy of their own rows, one at a time. Mapping each
    # model once would hold the noise of several models beside the draws.
    cfgs = tuple(acceptance._shared_configs().values())
    rows = 1 + max(c.n for c in cfgs)
    peak = _traced_span_peak(cfgs)
    assert peak <= 4 * CHUNK_TRIALS * rows * 8, peak


class TestUndefinedStatistics:
    def test_single_trial_report_holds_null_with_reason(self):
        report = run_experiment(_thermal(1))
        diag = report.to_dict()["diagnostics"]
        assert diag["max_abs_offdiag_corr"] is None
        assert diag["theta_skewness"] is None and diag["theta_excess_kurtosis"] is None
        assert diag["null_reasons"] == {
            "max_abs_offdiag_corr": "fewer than 2 trials",
            "theta_skewness": "fewer than 2 trials",
            "theta_excess_kurtosis": "fewer than 2 trials",
        }
        text = json.dumps(report.to_dict(), allow_nan=False)  # strict JSON: no NaN anywhere
        jsonschema.validate(json.loads(text), SCHEMA)

    def test_null_rows_fail(self):
        verdict = compare_bounds(run_experiment(_thermal(1)))
        rows = {r.quantity: r for r in verdict.rows}
        for name in ("max_feedback_corr", "theta_skewness", "theta_excess_kurtosis"):
            assert rows[name].empirical is None and not rows[name].passed
        assert not verdict.passed
        table = verdict.format_table()
        assert "null" in table and "overall: FAIL" in table
        json.dumps(verdict.to_dict(), allow_nan=False)

    def test_flat_row_keeps_null(self):
        row = report_flat_row(run_experiment(_thermal(1)))
        assert row["max_abs_offdiag_corr"] is None and row["theta_skewness"] is None

    def test_defined_statistics_have_no_reason(self):
        report = run_experiment(_thermal(2))
        assert report.diag.null_reasons == {}
        assert report.diag.theta_skewness is not None
        jsonschema.validate(json.loads(report.to_json()), SCHEMA)

    def test_zero_central_sum(self):
        # a constant decoder statistic and a constant second feedback round
        count = 50
        y = np.random.default_rng(3).normal(size=(count, 3))
        y[:, 1] = 7.25
        stats = _Moments.of(0, np.full(count, 0.1), np.ones((2, count)), y.T.copy())
        diag = stats.diagnostics()
        assert diag.max_abs_offdiag_corr is None and diag.theta_skewness is None
        assert diag.null_reasons == {
            "max_abs_offdiag_corr": "feedback round 2 has zero variance",
            "theta_skewness": "the decoder statistic has zero variance",
            "theta_excess_kurtosis": "the decoder statistic has zero variance",
        }
