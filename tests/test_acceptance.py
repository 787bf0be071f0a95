"""Acceptance gate: each verification criterion runs at its pinned seed and
tolerance and prints one pass/fail line. The Monte Carlo experiments behind
criteria 3..7 and 10 are shared across this module via a session fixture.
"""

import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import signal
import threading
from fnmatch import fnmatchcase

import numpy as np
import pytest

from skwiretap import acceptance, cli, harness
from skwiretap.harness import compare_bounds


@pytest.fixture(scope="session")
def results():
    return {result.index: result for result in acceptance.run_all()}


def _check(results, index):
    result = results[index]
    print(f"{'PASS' if result.passed else 'FAIL'}  criterion {index}: {result.name} -- {result.details}")
    assert result.passed, f"criterion {index} ({result.name}): {result.details}"


def test_criterion_01_conditional_variance_identity(results):
    _check(results, 1)


def test_criterion_02_recursion_vs_oracle(results):
    _check(results, 2)


def test_criterion_03_decoder_statistic_variance(results):
    _check(results, 3)


def test_criterion_04_error_probability_bound(results):
    _check(results, 4)


def test_criterion_05_power_constraint(results):
    _check(results, 5)


def test_criterion_06_non_gaussian_affine(results):
    _check(results, 6)


def test_criterion_07_independence_and_gaussianity(results):
    _check(results, 7)


def test_criterion_08_leakage_budget(results):
    _check(results, 8)


def test_criterion_09_tetration_machinery(results):
    _check(results, 9)


def test_criterion_10_determinism(results):
    _check(results, 10)


def test_every_criterion_passes_exactly_when_all_its_rows_pass(results):
    assert sorted(results) == list(range(1, len(acceptance.CRITERIA) + 1))
    for result in results.values():
        assert result.rows, f"criterion {result.index} has no rows"
        assert result.passed == all(r.passed for r in result.rows)
        # a numpy bool would print and serialize differently from the others
        assert all(type(r.passed) is bool for r in result.rows), result.rows


def _row(report, quantity):
    (row,) = [r for r in compare_bounds(report).rows if fnmatchcase(r.quantity, quantity)]
    return row


def _error_limit(report):
    """The highest error rate that the ``error_rate_vs_bound`` row of ``report`` passes."""
    row = _row(report, "error_rate_vs_bound")
    return row.predicted + row.tolerance


def _set_power(report, round_index, value):
    power = report.power_mean.copy()
    power[round_index] = value
    return {"power_mean": power}


def _diag(report, **changes):
    return {"diag": dataclasses.replace(report.diag, **changes)}


# (criterion, report key, perturbation of that report, compare_bounds row that must fail)
NEGATIVE_CONTROLS = {
    "3-variance": (
        acceptance.criterion_variance_of_theta, "main",
        lambda r: {"empirical_var_theta": r.empirical_var_theta * 1.2}, "var_theta_ratio",
    ),
    "4-one-error-deep": (
        acceptance.criterion_error_bound, "main",
        lambda r: {"error_count": 1, "error_rate": 1.0 / r.config.trials}, "error_rate_vs_bound",
    ),
    "4-edge-above-tolerance": (
        acceptance.criterion_error_bound, "edge",
        lambda r: {"error_rate": _error_limit(r) + 0.01}, "error_rate_vs_bound",
    ),
    "5-round-shifted-10se": (
        acceptance.criterion_power_constraint, "main",
        lambda r: _set_power(r, 4, r.config.n_s + 10.0 * r.power_se[4]), "power_round*_within_5se",
    ),
    "5-round0-above-ns": (
        acceptance.criterion_power_constraint, "main",
        lambda r: _set_power(r, 0, r.config.n_s * 1.01), "power_round0_leq_ns",
    ),
    "6-affine-variance": (
        acceptance.criterion_non_gaussian, "uniform_a2",
        lambda r: {"empirical_var_theta": r.empirical_var_theta * 1.2}, "var_theta_ratio",
    ),
    "6-chebyshev-above-tolerance": (
        acceptance.criterion_non_gaussian, "two-point_cheb",
        lambda r: {"error_rate": _error_limit(r) + 0.01}, "error_rate_vs_bound",
    ),
    "7-correlation": (
        acceptance.criterion_independence, "independence",
        lambda r: _diag(r, max_abs_offdiag_corr=0.1), "max_feedback_corr",
    ),
    "7-skewness": (
        acceptance.criterion_independence, "independence",
        lambda r: _diag(r, theta_skewness=1.0), "theta_skewness",
    ),
    "7-kurtosis": (
        acceptance.criterion_independence, "independence",
        lambda r: _diag(r, theta_excess_kurtosis=-1.0), "theta_excess_kurtosis",
    ),
}


def _perturbed(key, changes):
    reports = dict(acceptance.shared_reports(threads=1))
    reports[key] = dataclasses.replace(reports[key], **changes(reports[key]))
    return reports


@pytest.mark.parametrize("case", sorted(NEGATIVE_CONTROLS))
def test_criterion_and_its_row_fail_on_a_perturbed_report(case):
    criterion, key, changes, quantity = NEGATIVE_CONTROLS[case]
    assert criterion(acceptance.shared_reports(threads=1)).passed
    reports = _perturbed(key, changes)
    result = criterion(reports)
    assert not result.passed, result.details
    assert not _row(reports[key], quantity).passed


def _scaled(factor):
    return lambda func: lambda *args: func(*args) * factor


def _fields(when=lambda *args: True, **changes):
    """A perturbation of a function that returns a dataclass: each field in ``changes`` mapped
    through its function, for the arguments ``when`` accepts."""

    def perturb(func):
        def perturbed(*args):
            result = func(*args)
            if not when(*args):
                return result
            return dataclasses.replace(result, **{k: change(getattr(result, k)) for k, change in changes.items()})

        return perturbed

    return perturb


def _theta_n_scaled(factor):
    """A perturbation of the batch kernel: every theta_n it returns scaled by ``factor``, a defect in Bob's estimate."""

    def perturb(kernel):
        def perturbed(*args):
            out = kernel(*args)
            return dict(out, theta_n=out["theta_n"] * factor)

        return perturbed

    return perturb


# (criterion, acceptance attribute it calls, perturbation of that attribute, the one row that must fail);
# leakage_budget's last argument is the blocklength n
INPUT_CONTROLS = {
    "1-capacity": (
        acceptance.criterion_variance_identity, "awgn_capacity", _scaled(1 + 1e-8), "max_relative_deviation",
    ),
    "2-oracle": (
        acceptance.criterion_oracle_equivalence, "mmse_oracle", _scaled(1 + 1e-8), "max_relative_disagreement",
    ),
    "2-kernel": (
        acceptance.criterion_oracle_equivalence, "_simulate_chunk", _theta_n_scaled(1 + 1e-6),
        "max_relative_disagreement",
    ),
    "8-value": (
        # both fields move together, so the scaling and the n-independence still hold
        acceptance.criterion_leakage_budget, "leakage_budget",
        _fields(per_mode_bits=lambda v: v * (1 + 1e-4), total_bits=lambda v: v * (1 + 1e-4)), "per_mode_bits_n99",
    ),
    "8-numerator": (
        acceptance.criterion_leakage_budget, "leakage_budget",
        _fields(lambda *args: args[-1] == 999, total_bits=lambda v: v * (1 + 1e-14)), "total_bits_n999",
    ),
    "8-scaling": (
        acceptance.criterion_leakage_budget, "leakage_budget",
        _fields(lambda *args: args[-1] == 9, per_mode_bits=lambda v: v * (1 + 1e-9)), "scaled_per_mode_bits_n9",
    ),
    "9-phi": (
        acceptance.criterion_tetration, "phi",
        lambda func: lambda *args: func(*args) + 1e-9, "phi_round_trip_residual",
    ),
    "9-order": (
        acceptance.criterion_tetration, "tetration_order",
        lambda func: lambda b: func(b) - 10 * (b.n == 200), "order_decreases",
    ),
    "9-order-1-bound": (
        acceptance.criterion_tetration, "tetration_error_bound",
        _fields(value=lambda v: v * (1 + 1e-14)), "order1_bound",
    ),
    "9-underflow-marker": (
        acceptance.criterion_tetration, "tetration_error_bound",
        _fields(underflow=lambda u: False), "order4_bound",
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_CONTROLS))
def test_criterion_and_only_its_row_fail_on_a_perturbed_input(monkeypatch, case):
    criterion, attribute, perturb, quantity = INPUT_CONTROLS[case]
    assert criterion().passed
    monkeypatch.setattr(acceptance, attribute, perturb(getattr(acceptance, attribute)))
    result = criterion()
    assert not result.passed, result.details
    assert [r.quantity for r in result.rows if not r.passed] == [quantity]


def test_criterion_2_runs_the_kernel_on_every_n_gain_and_mean(monkeypatch):
    # the draw of configs cannot shrink unnoticed: 100 kernel transcripts, n = 1..20, all gains and means
    kernel = acceptance._simulate_chunk
    runs = []

    def recording(cfg, start, noise, u, x=None):
        runs.append((cfg.n, cfg.channel.gain, cfg.channel.noise.mean, cfg.channel.noise.family, noise.shape[1]))
        return kernel(cfg, start, noise, u, x)

    monkeypatch.setattr(acceptance, "_simulate_chunk", recording)
    assert acceptance.criterion_oracle_equivalence().passed
    ns, gains, means, families, trials = zip(*runs)
    assert sorted(ns) == list(range(1, 21))
    assert set(gains) == {1.0, -1.5, 2.0} and set(means) == {0.0, 0.25} and set(families) == {"gaussian"}
    assert sum(trials) == 100


def test_criterion_4_holds_the_deep_bound_strictly_below_1e_300():
    # at the limit itself the row's slack still admits no error, but the regime row fails
    reports = _perturbed("main", lambda r: {"analytic_error_bound": 1e-300})
    result = acceptance.criterion_error_bound(reports)
    assert _row(reports["main"], "error_rate_vs_bound").passed
    assert [r.quantity for r in result.rows if not r.passed] == ["error_bound_below_1e-300"]


def _absolute_limit(bound, trials):
    """min(1, bound + 5 SE): the highest error rate the error row admits, written as an absolute limit."""
    return min(1.0, bound + 5.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / trials))


@pytest.mark.parametrize("key", sorted(acceptance._shared_configs()))
def test_error_row_verdict_matches_the_absolute_limit(key):
    # the row stores the 5-SE slack as a one-sided deviation from the bound; no verdict moves
    report = acceptance.shared_reports(threads=1)[key]
    trials = report.config.trials
    assert _row(report, "error_rate_vs_bound").passed is True
    assert report.error_rate <= _absolute_limit(report.analytic_error_bound, trials)
    for bound in (0.0, 1e-300, 0.178, 0.5, 1.0, 1.7, math.inf):
        limit = _absolute_limit(bound, trials)
        for rate in (0.0, 1.0, limit - 1e-6, limit + 1e-6):
            rate = min(max(rate, 0.0), 1.0)
            changed = dataclasses.replace(report, analytic_error_bound=bound, error_rate=rate)
            assert _row(changed, "error_rate_vs_bound").passed is (rate <= limit), (bound, rate)


def test_chebyshev_criterion_is_stricter_than_its_row():
    # an error rate between the bound and the row's 5-SE slack fails criterion 6 only
    report = acceptance.shared_reports(threads=1)["uniform_cheb"]
    row = _row(report, "error_rate_vs_bound")
    assert row.tolerance > 0
    between = float(np.nextafter(row.predicted, 1.0))
    reports = _perturbed("uniform_cheb", lambda r: {"error_rate": between})
    assert _row(reports["uniform_cheb"], "error_rate_vs_bound").passed
    assert not acceptance.criterion_non_gaussian(reports).passed


def test_shared_reports_fork_one_pool(forked_pools):
    # past the cache, so the one 2-worker run of all nine configs happens
    reports = acceptance.shared_reports.__wrapped__(threads=2)
    assert len(reports) == 9 and forked_pools == [(2, 0)]


def _fresh_run_all_state():
    acceptance.shared_reports.cache_clear()
    return acceptance.shared_reports.cache_info().misses


def test_run_all_forks_once_before_its_helper_thread(monkeypatch, forked_pools):
    threads_at_fork = []
    real_fork = os.fork

    def recording_fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    misses_before = _fresh_run_all_state()
    results = acceptance.run_all()
    assert all(r.passed for r in results)
    # one miss per report set: the helper thread filled the pooled entry, which criterion 10 then read
    assert acceptance.shared_reports.cache_info().misses - misses_before == 2
    assert forked_pools == [(2, 0)]
    # both workers forked while the calling thread was the only Python thread; this
    # counts no native threads, such as those of numpy's and scipy's OpenBLAS
    assert threads_at_fork == [1, 1]


def test_criterion_10_fails_on_a_perturbed_pooled_report(monkeypatch):
    cached = acceptance.shared_reports

    def perturbed(threads=1):
        reports = cached(threads=threads)
        if threads == 2:
            edge = reports["edge"]
            reports = dict(reports, edge=dataclasses.replace(edge, error_count=edge.error_count + 1))
        return reports

    monkeypatch.setattr(acceptance, "shared_reports", perturbed)
    results = acceptance.run_all()
    assert [r.index for r in results if not r.passed] == [10]
    assert results[-1].details == "mismatched: ['edge']"


_TEST_PID = os.getpid()
_SPAN_MOMENTS = harness._span_moments


def _failing_span_moments(side, cfgs, start):
    """``harness._span_moments`` that raises in the pool's workers or in the parent, by ``side``."""
    if (os.getpid() == _TEST_PID) == (side == "parent"):
        raise RuntimeError(f"injected {side} failure")
    return _SPAN_MOMENTS(cfgs, start)


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail instead of hanging: SIGALRM raises in the main thread, also inside a join."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_verify_failure_reaches_the_caller_and_leaves_nothing_running(monkeypatch, forked_pools, side):
    # the pooled set fails in the workers; the serial set fails in the calling thread
    monkeypatch.setattr(harness, "_span_moments", functools.partial(_failing_span_moments, side))
    threads_before = set(threading.enumerate())
    _fresh_run_all_state()
    with _time_limit(60), pytest.raises(RuntimeError, match=f"injected {side} failure"):
        cli.main(["verify"])
    # raised as it happened: a lost pooled failure would have criterion 10 fork a second pool
    assert forked_pools == [(2, 0)]
    assert set(threading.enumerate()) == threads_before
    assert multiprocessing.active_children() == []
