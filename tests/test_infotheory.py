"""Unit tests for the closed-form rates, bounds, and the leakage budget.

Golden constants were computed with an independent 40-digit evaluation of
each displayed formula and are frozen here.
"""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given
from hypothesis import strategies as st

from skwiretap import infotheory
from skwiretap.acceptance import ROOT_SEED, criterion_tetration
from skwiretap.infotheory import (
    BoundQuery,
    _bisect,
    awgn_capacity,
    chebyshev_error_bound,
    g_entropy,
    induced_sigma2,
    leakage_budget,
    phi,
    phi_inverse,
    rate_squeezed_homodyne,
    sk_error_bound,
    sk_error_bound_log10,
    tetration_error_bound,
    tetration_order,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestGEntropy:
    def test_zero(self):
        assert g_entropy(0.0) == 0.0

    def test_one(self):
        assert g_entropy(1.0) == 2.0

    def test_three(self):
        # 4 log2(4) - 3 log2(3)
        assert g_entropy(3.0) == pytest.approx(3.245112497836531, abs=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="x="):
            g_entropy(-1e-9)

    def test_matches_mpmath_over_the_double_range(self):
        # (x+1) log2(x+1) - x log2(x) cancels in doubles above x = 1: 0.0 at 1e20, NaN from about 1e305
        for x in np.geomspace(1e-6, 1e300, 500).tolist():
            # the same difference in mpmath, with 30 digits beyond the ones it cancels
            with mpmath.workdps(30 + max(0, int(math.log10(x)))):
                big = mpmath.mpf(x)
                exact = float(((big + 1) * mpmath.log(big + 1) - big * mpmath.log(big)) / mpmath.log(2))
            assert abs(g_entropy(x) - exact) <= 1e-12 * exact, x

    def test_nonnegative_increasing_concave(self):
        grid = np.linspace(0.0, 30.0, 400)
        values = np.array([g_entropy(x) for x in grid])
        assert np.all(values >= 0)
        assert np.all(np.diff(values) > 0)
        assert np.all(np.diff(values, 2) <= 1e-12)


class TestAwgnCapacity:
    def test_known_values(self):
        assert awgn_capacity(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert awgn_capacity(0.0, 1.0) == 0.0
        assert awgn_capacity(4.0, 1.0) == pytest.approx(1.160964047443681, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError, match="noise="):
            awgn_capacity(1.0, 0.0)
        with pytest.raises(ValueError, match="power="):
            awgn_capacity(-1.0, 1.0)


class TestInducedSigma2:
    @pytest.mark.parametrize(
        "eta,n_th,expected",
        [(1.0, 0.0, 0.25), (0.5, 1.0, 1.0), (0.1, 2.0, 11.5), (0.25, 0.0, 1.0)],
    )
    def test_values(self, eta, n_th, expected):
        assert induced_sigma2(eta, n_th) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.5])
    def test_eta_domain(self, eta):
        with pytest.raises(ValueError, match="eta="):
            induced_sigma2(eta, 0.0)


class TestCoherentRate:
    """The coherent-homodyne rate is the AWGN capacity of the induced channel."""

    def test_basic(self):
        assert awgn_capacity(3.0, induced_sigma2(0.5, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_vanishes_with_power(self):
        assert awgn_capacity(1e-12, induced_sigma2(1.0, 0.0)) < 1e-11

    def test_lossless_vacuum(self):
        assert induced_sigma2(1.0, 0.0) == 0.25
        assert awgn_capacity(10.0, induced_sigma2(1.0, 0.0)) == pytest.approx(2.678776002309042, abs=1e-13)

    def test_equals_capacity_of_induced_channel(self):
        # (1/2) log2(1 + 4 eta n_s / (1 + 2 (1 - eta) n_th)); n_th = 0 gives the paper's (1/2) log2(1 + 4 eta n_s).
        # log1p, not log2(1 + x): rounding 1 + x costs up to 1.4e-14 relative at capacity 0.0045
        for eta in (0.1, 0.4, 0.7, 1.0):
            for n_th in (0.0, 0.5, 3.0):
                for n_s in (0.1, 2.0, 20.0):
                    closed = 0.5 * math.log1p(4.0 * eta * n_s / (1.0 + 2.0 * (1.0 - eta) * n_th)) / math.log(2.0)
                    assert awgn_capacity(n_s, induced_sigma2(eta, n_th)) == pytest.approx(closed, rel=1e-14, abs=0.0)


class TestSqueezedRate:
    def test_frozen_values(self):
        assert rate_squeezed_homodyne(0.5, 1.0) == pytest.approx(1.009005931142434, abs=1e-13)
        assert rate_squeezed_homodyne(0.9, 5.0) == pytest.approx(2.963925668952594, abs=1e-13)

    def test_small_power_limit(self):
        # the displayed formula's internal gain tends to 1 as n_s -> 0, which
        # leaves a floor of (1/2) log2(1 + 2 eta); frozen from the oracle
        assert rate_squeezed_homodyne(0.5, 1e-12) == pytest.approx(0.5, abs=1e-11)
        assert rate_squeezed_homodyne(0.8, 1e-12) == pytest.approx(
            0.5 * math.log2(1 + 1.6), abs=1e-11
        )

    def test_tiny_eta_limit(self):
        # the internal gain tends to 1 as eta -> 0, leaving (4 n_s + 2) eta / (2 ln 2)
        # abs=0: approx's default absolute tolerance of 1e-12 would accept 0.0 here
        expected = 14e-300 / (2 * math.log(2))
        assert rate_squeezed_homodyne(1e-300, 3.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_subnormal_eta(self):
        # (1 - eta)/eta overflows below eta ~ 1e-308; the rate is still a representable subnormal
        eta = 1e-310
        expected = 14 * eta / (2 * math.log(2))
        assert rate_squeezed_homodyne(eta, 3.0) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_beyond_a_quarter_of_double_range(self):
        # 4 n_s overflows above n_s = 4.49e307; the rate read NaN there
        for eta in (1e-300, 0.5, 0.9, 1.0 - 1e-9):
            for n_s in (4.5e307, 1e308, 1.7976931348623157e308):
                with mpmath.workdps(40):
                    e, p = mpmath.mpf(eta), mpmath.mpf(n_s)
                    f = (mpmath.sqrt(1 + 4 * p * e * (1 - e)) - e) / (1 - e)
                    expected = float(mpmath.log(1 + (4 * p + 2 - f + 1 / f) * e / ((1 - e) + e / f), 2) / 2)
                assert rate_squeezed_homodyne(eta, n_s) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_eta_domain(self):
        with pytest.raises(ValueError, match="eta="):
            rate_squeezed_homodyne(1.0, 1.0)
        with pytest.raises(ValueError, match="eta="):
            rate_squeezed_homodyne(0.0, 1.0)

    def test_beats_coherent_rate_on_pure_loss(self):
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            for n_s in (0.2, 1.0, 5.0, 20.0):
                coherent = awgn_capacity(n_s, induced_sigma2(eta, 0.0))
                assert rate_squeezed_homodyne(eta, n_s) >= coherent


class TestSkErrorBound:
    def test_deep_regime_underflows(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=10, rate=0.5)
        assert sk_error_bound(b) < 1e-300
        assert sk_error_bound_log10(b) == pytest.approx(-667.174, rel=1e-4, abs=0.0)

    def test_rate_at_capacity(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=7, rate=1.0)
        # exponent collapses to n_s / (2 sigma2), independent of n
        assert sk_error_bound(b) == pytest.approx(SQRT_2_OVER_PI * math.exp(-1.5), abs=1e-15)
        assert sk_error_bound(b) == pytest.approx(0.17803210983190294, abs=1e-15)

    def test_near_capacity_value(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=2, rate=0.95)
        assert sk_error_bound(b) == pytest.approx(0.14243936406839356, abs=1e-15)

    def test_nonincreasing_in_n_below_capacity(self):
        values = [sk_error_bound(BoundQuery(n_s=3.0, sigma2=1.0, n=n, rate=0.8)) for n in range(1, 30)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clamped_above_capacity(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=50, rate=5.0)
        assert 0.0 < sk_error_bound(b) <= SQRT_2_OVER_PI

    def test_exponent_beyond_double_range(self):
        # the exponent 2^(2 n (P_H - R) - 1) n_s / sigma2 leaves double range from n = 137 on
        # here; at n = 1000 the power of two alone does
        values = [BoundQuery(n_s=100.0, sigma2=0.5, n=n, rate=0.1) for n in (136, 137, 1000)]
        assert [sk_error_bound(b) for b in values] == [0.0, 0.0, 0.0]
        logs = [sk_error_bound_log10(b) for b in values]
        assert -math.inf < logs[0] < -1e300 and logs[1:] == [-math.inf, -math.inf]


class TestChebyshevBound:
    def test_reference_point(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=5, rate=0.5)
        assert chebyshev_error_bound(1.0, b) == pytest.approx(2.0**-5 / 3.0, rel=1e-14, abs=0.0)

    def test_gain_scaling(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=5, rate=0.5)
        assert chebyshev_error_bound(2.0, b) == pytest.approx(4.0 * chebyshev_error_bound(1.0, b), rel=1e-14, abs=0.0)

    def test_deeper_blocklength(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=10, rate=0.5)
        assert chebyshev_error_bound(1.0, b) == pytest.approx(2.0**-10 / 3.0, rel=1e-14, abs=0.0)

    def test_nonincreasing_below_capacity(self):
        values = [
            chebyshev_error_bound(1.0, BoundQuery(n_s=3.0, sigma2=1.0, n=n, rate=0.7))
            for n in range(1, 25)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_overflow_far_above_capacity(self):
        b = BoundQuery(n_s=3.0, sigma2=0.5, n=1000, rate=10.0)
        assert chebyshev_error_bound(1.0, b) == math.inf
        assert sk_error_bound(b) == SQRT_2_OVER_PI


class TestPhi:
    def test_at_one_equals_coherent_rate(self):
        assert phi(1.0, 3.0, 1.0) == awgn_capacity(3.0, 1.0)

    def test_vanishing_limit(self):
        assert phi(1e-12, 3.0, 1.0) < 1e-10

    def test_halfway_value(self):
        assert phi(0.5, 3.0, 1.0) == pytest.approx(0.701838730514401, abs=1e-14)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(1e-6, 1.0, 1000)
        values = np.array([phi(nu, 3.0, 1.0) for nu in grid])
        assert np.all(np.diff(values) > 0)

    def test_domain(self):
        for nu in (0.0, -0.5, 1.0001):
            with pytest.raises(ValueError, match="nu="):
                phi(nu, 3.0, 1.0)

    def test_ratio_beyond_double_range(self):
        # sigma2 * nu underflows to 0 at the bisection's lower end
        assert 0.0 < phi(1e-300, 1.0, 1e-300) < 1e-296
        values = [phi(nu, 1.0, 1e-300) for nu in (1e-300, 1e-10, 0.5, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] == awgn_capacity(1.0, 1e-300)
        assert phi(phi_inverse(100.0, 1.0, 1e-300), 1.0, 1e-300) == pytest.approx(100.0, rel=1e-11, abs=0.0)


class TestPhiInverse:
    def test_at_capacity(self):
        assert phi_inverse(awgn_capacity(3.0, 1.0), 3.0, 1.0) == 1.0

    def test_round_trip_through_half(self):
        target = phi(0.5, 3.0, 1.0)
        assert phi_inverse(target, 3.0, 1.0) == pytest.approx(0.5, abs=1e-10)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_round_trip_residual(self, frac):
        p_h = awgn_capacity(3.0, 1.0)
        rate = frac * p_h
        nu = phi_inverse(rate, 3.0, 1.0)
        assert abs(phi(nu, 3.0, 1.0) - rate) < 1e-10

    def test_domain(self):
        p_h = awgn_capacity(3.0, 1.0)
        for rate in (0.0, -0.1, p_h * 1.0001):
            with pytest.raises(ValueError, match="rate="):
                phi_inverse(rate, 3.0, 1.0)

    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    def test_rates_below_phi_of_any_positive_bracket_end(self, rate):
        # phi(1e-300) is about 5e-298; at 5e-324 a sign test by product would underflow to -0
        nu = phi_inverse(rate, 3.0, 1.0)
        assert 0.0 < nu <= 1e-12
        assert tetration_order(BoundQuery(n_s=3.0, sigma2=1.0, n=10, rate=rate)) == 4

    def test_same_float_as_scipy_bisect(self):
        # the criterion-9 draws, the sigma2 = 1e-300 case, and a grid that ends at rate == P_H
        rng = np.random.default_rng(ROOT_SEED + 9)
        points = [(float(rng.uniform(0.01, 0.999) * awgn_capacity(3.0, 1.0)), 3.0, 1.0) for _ in range(100)]
        points.append((100.0, 1.0, 1e-300))
        for n_s in (1e-3, 0.1, 3.0, 1e3):
            for sigma2 in (1e-300, 1e-12, 0.25, 1.0, 50.0):
                p_h = awgn_capacity(n_s, sigma2)
                points += [(frac * p_h, n_s, sigma2) for frac in (1e-9, 0.01, 0.3, 0.5, 0.999, 1.0 - 1e-12, 1.0)]
        for rate, n_s, sigma2 in points:
            oracle = scipy.optimize.bisect(lambda nu: phi(nu, n_s, sigma2) - rate, 1e-300, 1.0, xtol=1e-12)
            assert phi_inverse(rate, n_s, sigma2) == oracle, (rate, n_s, sigma2)

    def test_bisection_end_checks_match_scipy(self):
        for f, a, b in ((lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0), (lambda x: x * x - 2.0, 0.0, 2.0)):
            assert _bisect(f, a, b, xtol=1e-12) == scipy.optimize.bisect(f, a, b, xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            _bisect(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-12)


class TestPhiInverseCache:
    def test_criterion_9_bisects_once_per_rate(self, monkeypatch):
        # 100 random rates and one rate shared by the tower orders of n = 1..200
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _bisect(*args, **kwargs)

        monkeypatch.setattr(infotheory, "_bisect", counting)
        phi_inverse.cache_clear()
        assert criterion_tetration().passed
        assert 0 < len(calls) <= 101, len(calls)

    def test_invalid_rate_raises_on_every_call(self):
        before = phi_inverse.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError, match="rate="):
                phi_inverse(0.0, 3.0, 1.0)
        after = phi_inverse.cache_info()
        assert (after.misses - before.misses, after.currsize) == (3, before.currsize)

    def test_hit_returns_the_identical_float(self):
        phi_inverse.cache_clear()
        first = phi_inverse(0.3, 3.0, 1.0)
        assert phi_inverse(0.3, 3.0, 1.0) is first
        assert phi_inverse.cache_info().hits == 1


class TestTetration:
    def test_small_n_not_active(self):
        assert tetration_order(BoundQuery(n_s=3.0, sigma2=1.0, n=1, rate=0.5)) <= 0

    def test_composes_with_phi_inverse(self):
        nu = phi_inverse(0.5, 3.0, 1.0)
        expected = math.floor(100 * (1 - nu) - 5 * (1 - nu) / (1.0 - 0.5))
        assert tetration_order(BoundQuery(n_s=3.0, sigma2=1.0, n=100, rate=0.5)) == expected

    def test_nondecreasing_in_n(self):
        orders = [tetration_order(BoundQuery(n_s=3.0, sigma2=1.0, n=n, rate=0.5)) for n in range(1, 120)]
        assert all(b >= a for a, b in zip(orders, orders[1:]))

    def test_rate_domain(self):
        with pytest.raises(ValueError, match="rate="):
            tetration_order(BoundQuery(n_s=3.0, sigma2=1.0, n=10, rate=1.0))

    def test_order_floored_where_the_capacity_gap_is_subnormal(self):
        # the double just below P_H = 1.4426950408889636e-300: 5 (1 - nu*)/(P_H - R) overflows
        b = BoundQuery(n_s=1e-300, sigma2=0.5, n=10, rate=1.4426950408889634e-300)
        assert tetration_order(b) == math.floor(-sys.float_info.max)

    def test_n_beyond_double_range(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=10**400, rate=0.5)
        assert tetration_order(b) == math.floor(sys.float_info.max * (1.0 - phi_inverse(0.5, 3.0, 1.0)))

    @given(
        n_s=st.floats(min_value=1e-300, max_value=1e300), sigma2=st.floats(min_value=1e-300, max_value=1e300),
        n=st.integers(min_value=1, max_value=10**400),
        share=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True) | st.just(None),
    )
    def test_order_is_an_int_at_every_rate_below_capacity(self, n_s, sigma2, n, share):
        # share None is the double just below P_H, where P_H - R is smallest
        assume(math.isfinite(n_s / sigma2))
        p_h = awgn_capacity(n_s, sigma2)
        rate = math.nextafter(p_h, 0.0) if share is None else share * p_h
        assume(0.0 < rate < p_h)
        assert isinstance(tetration_order(BoundQuery(n_s=n_s, sigma2=sigma2, n=n, rate=rate)), int)

    def test_tower_values(self):
        b1 = tetration_error_bound(1)
        assert b1.value == pytest.approx(1.0 / math.e, abs=1e-16)
        assert not b1.underflow
        assert tetration_error_bound(2).value == pytest.approx(0.06598803584531254, abs=1e-16)
        assert tetration_error_bound(3).value == pytest.approx(2.6217273894613532e-07, rel=1e-12, abs=0.0)

    def test_underflow_marker(self):
        b4 = tetration_error_bound(4)
        assert b4.underflow and b4.value == 0.0
        assert b4.log10_value == pytest.approx(-1656520.3676, rel=1e-8, abs=0.0)

    def test_not_active_error(self):
        with pytest.raises(ValueError, match="order=0"):
            tetration_error_bound(0)


class TestLeakageBudget:
    def test_reference_point(self):
        budget = leakage_budget(0.5, 0.0, 2.0, 0.5, 1.0, 99)
        assert budget.tap_capacity == pytest.approx(0.9036774610288021, abs=1e-14)
        assert budget.eve_entropy_bound == 2.0
        assert budget.per_mode_bits == pytest.approx(0.029037, abs=1e-6)

    def test_per_mode_vanishes(self):
        assert leakage_budget(0.5, 0.0, 2.0, 0.5, 1.0, 10**6).per_mode_bits < 3e-6

    def test_vacuum_port(self):
        assert leakage_budget(1.0, 0.0, 2.0, 0.25, 1.0, 9).eve_entropy_bound == 0.0

    def test_noiseless_tap_rejected(self):
        with pytest.raises(ValueError, match="tap_variance="):
            leakage_budget(0.5, 0.0, 2.0, 0.5, 0.0, 9)
        # a tap this quiet has a finite capacity only in exact arithmetic; total_bits read inf
        with pytest.raises(ValueError) as exc:
            leakage_budget(0.5, 1.0, 3.0, 1.0, 1e-320, 10)
        assert str(exc.value) == "(n_s + sigma2)/tap variance = (3.0 + 1.0)/1e-320 overflows"

    def test_numerator_independent_of_n(self):
        budgets = [leakage_budget(0.5, 0.0, 2.0, 0.5, 1.0, n) for n in (1, 9, 99, 999)]
        totals = {b.total_bits for b in budgets}
        assert len(totals) == 1
        for n, b in zip((1, 9, 99, 999), budgets):
            assert b.per_mode_bits * (n + 1) == pytest.approx(b.total_bits, rel=1e-12, abs=0.0)


class TestQueryValidation:
    def test_bound_query_is_the_four_field_operating_point(self):
        fields = dataclasses.fields(BoundQuery)
        assert [f.name for f in fields] == ["n_s", "sigma2", "n", "rate"]
        assert all(f.default is dataclasses.MISSING for f in fields)

    def test_bound_query_domains(self):
        with pytest.raises(ValueError, match="n_s="):
            BoundQuery(n_s=0.0, sigma2=1.0, n=1, rate=0.5)
        with pytest.raises(ValueError, match="sigma2="):
            BoundQuery(n_s=1.0, sigma2=0.0, n=1, rate=0.5)
        with pytest.raises(ValueError, match="n="):
            BoundQuery(n_s=1.0, sigma2=1.0, n=0, rate=0.5)
        with pytest.raises(ValueError, match="rate="):
            BoundQuery(n_s=1.0, sigma2=1.0, n=1, rate=0.0)
        # each field is in range, but n_s/sigma2 overflows; awgn_capacity read inf
        with pytest.raises(ValueError) as exc:
            BoundQuery(n_s=1e300, sigma2=1e-300, n=4, rate=0.5)
        assert str(exc.value) == "n_s/sigma2 = 1e+300/1e-300 overflows"

    def test_rate_above_capacity_is_allowed(self):
        b = BoundQuery(n_s=3.0, sigma2=1.0, n=5, rate=7.0)
        assert sk_error_bound(b) > 0.0
