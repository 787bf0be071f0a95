"""Codebook, MMSE schedule, the rounds of ``run_protocol``, the oracle, and full executions."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skwiretap.channels import AffineChannel, EveTap, NoiseModel, ThermalWiretapParams, TrialLanes
from skwiretap.infotheory import awgn_capacity, induced_sigma2
from skwiretap.protocol import make_codebook, make_schedule, mmse_oracle, run_protocol
from test_channels import StubLane, _run

SEED = 271828


class TestCodebook:
    def test_four_messages(self):
        cb = make_codebook(2, 1.0, 1.0)
        assert cb.message_count == 4
        assert np.allclose(cb.midpoints(), [-0.75, -0.25, 0.25, 0.75])

    def test_two_messages(self):
        cb = make_codebook(1, 1.0, 4.0)
        assert np.allclose(cb.midpoints(), [-1.0, 1.0])

    def test_ceiling_rule(self):
        cb = make_codebook(3, 0.5, 1.0)
        assert cb.message_count == 4
        assert cb.realized_rate == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0.0)

    def test_binary_dust_snap(self):
        # 0.07 * 300 = 21.000000000000004 must not double the codebook
        assert make_codebook(300, 0.07, 1.0).message_count == 2**21

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="codebook"):
            make_codebook(100, 1.0, 1.0)

    @given(
        n=st.integers(min_value=1, max_value=20),
        rate=st.floats(min_value=0.05, max_value=1.5),
        n_s=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_midpoint_geometry(self, n, rate, n_s):
        cb = make_codebook(n, rate, n_s)
        mids = cb.midpoints()
        amp = math.sqrt(n_s)
        assert np.all(mids > -amp) and np.all(mids < amp)
        gaps = np.diff(mids)
        assert np.allclose(gaps, 2 * amp / cb.message_count, rtol=1e-12)
        assert cb.half_gap == pytest.approx(amp / cb.message_count, rel=1e-15, abs=0.0)

    def test_decode_nearest(self):
        cb = make_codebook(2, 1.0, 1.0)
        assert cb.decode_value(0.2) == 3

    def test_decode_tie_breaks_low(self):
        cb = make_codebook(2, 1.0, 1.0)
        assert cb.decode_value(0.0) == 2

    def test_decode_clamps(self):
        cb = make_codebook(2, 1.0, 1.0)
        assert cb.decode_value(1.7) == 4
        assert cb.decode_value(-2.0) == 1

    @given(theta=st.floats(min_value=-3.0, max_value=3.0), bits=st.integers(min_value=1, max_value=6))
    def test_decode_matches_argmin(self, theta, bits):
        cb = make_codebook(bits, 1.0, 2.0)
        mids = cb.midpoints()
        dist = np.abs(mids - theta)
        expected = int(np.flatnonzero(dist == dist.min())[0]) + 1  # smallest index on ties
        assert cb.decode_value(theta) == expected


class TestSchedule:
    def test_first_round_gain(self):
        sched = make_schedule(3, 3.0, 1.0)
        assert sched.gamma[1] == pytest.approx(math.sqrt(3.0), rel=1e-15, abs=0.0)

    def test_terminal_variance(self):
        sched = make_schedule(3, 3.0, 1.0)
        assert sched.v[3] == pytest.approx(2.0**-6, rel=1e-13, abs=0.0)

    def test_first_estimator_gain(self):
        sched = make_schedule(3, 3.0, 1.0)
        assert sched.k_gain[1] == pytest.approx(0.4330127018922193, abs=1e-15)

    def test_recursion_self_consistency(self):
        sched = make_schedule(12, 2.5, 0.7)
        shrink = 0.7 / (2.5 + 0.7)
        for i in range(1, 13):
            assert sched.v[i] == pytest.approx(sched.v[i - 1] * shrink, rel=1e-15, abs=0.0)
            assert sched.gamma[i] * math.sqrt(sched.v[i - 1]) == pytest.approx(math.sqrt(2.5), rel=1e-12, abs=0.0)
            assert sched.k_gain[i] == pytest.approx(sched.gamma[i] * sched.v[i - 1] / 3.2, rel=1e-14, abs=0.0)

    def test_terminal_variance_identity_on_grid(self):
        for eta in (0.1, 0.5, 1.0):
            for n_th in (0.0, 2.0):
                for n_s in (0.5, 10.0):
                    sigma2 = induced_sigma2(eta, n_th)
                    p_h = awgn_capacity(n_s, sigma2)
                    for n in (1, 10, 50):
                        sched = make_schedule(n, n_s, sigma2)
                        assert sched.v[n] == pytest.approx(sigma2 * 2.0 ** (-2 * n * p_h), rel=1e-12, abs=0.0)

    def test_deep_schedule_survives_underflow(self):
        sched = make_schedule(600, 3.0, 1.0)
        assert sched.v[600] == 0.0  # past double range
        assert sched.log2_v[600] == pytest.approx(-1200.0, abs=1e-8)
        assert math.isfinite(sched.gamma[600]) and sched.gamma[600] > 0
        assert math.isfinite(sched.k_gain[600]) and sched.k_gain[600] >= 0

    def test_domain(self):
        with pytest.raises(ValueError):
            make_schedule(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_schedule(1, 1.0, -1.0)


def _stub_lanes(u):
    """Lanes whose every uniform is ``u``, so every noise draw is the same value."""
    return SimpleNamespace(forward=StubLane(u), tap=StubLane(0.5))


def _bob_estimate(t, gain=1.0):
    """Bob's final estimate of the round-0 noise: round-0 observation minus the decoder statistic."""
    return t.y[0] / gain - t.theta_n


# StubLane(0.75) on unit-variance two-point noise draws +1 in every round
UNIT_DRAWS = NoiseModel("two-point", 1.0)


class TestRounds:
    def test_first_transmission(self):
        # the prior estimate is the declared mean: round 1 sends the scaled centered round-0 noise
        channel = AffineChannel(2.0, NoiseModel("uniform", 1.0, 0.25))
        t = _run(channel, TrialLanes(SEED, 3))
        sched = make_schedule(4, 3.0, 1.0)
        assert t.x[1] == sched.gamma[1] * (t.noise[0] - 0.25)

    def test_perfect_knowledge_transmits_nothing(self):
        t = _run(AffineChannel(2.0, NoiseModel("gaussian", 1.0)), _stub_lanes(0.5))
        assert t.noise.tolist() == [0.0] * 5
        assert t.x[1:].tolist() == [0.0] * 4

    def test_hand_recursion_round_two(self):
        # n_s = 3, sigma2 = 1: gamma = (sqrt 3, 2 sqrt 3), k[1] = sqrt(3) / 4
        t = _run(AffineChannel(1.0, UNIT_DRAWS), _stub_lanes(0.75), n=3)
        assert t.noise.tolist() == [1.0] * 4
        assert t.x[1] == pytest.approx(math.sqrt(3.0), rel=1e-15, abs=0.0)
        # estimate after round 1: k[1] (sqrt 3 + 1) = (3 + sqrt 3) / 4, so x[2] = 2 sqrt 3 (1 - that)
        assert t.x[2] == pytest.approx((math.sqrt(3.0) - 3) / 2, rel=1e-14, abs=0.0)

    def test_bob_zero_observations(self):
        # zero refinement observations leave Bob's estimate at the noise mean
        t = _run(AffineChannel(2.0, NoiseModel("gaussian", 1.0)), _stub_lanes(0.5))
        assert t.y[1:].tolist() == [0.0] * 4
        assert _bob_estimate(t, 2.0) == 0.0

    def test_bob_single_round(self):
        t = _run(AffineChannel(1.0, UNIT_DRAWS), _stub_lanes(0.75), n=1)
        assert t.y[1] == pytest.approx(math.sqrt(3.0) + 1, rel=1e-15, abs=0.0)
        assert _bob_estimate(t) == pytest.approx((3 + math.sqrt(3.0)) / 4, rel=1e-14, abs=0.0)


class TestMmseOracle:
    def test_single_observation_equals_recursion(self):
        sched = make_schedule(5, 3.0, 1.0)
        assert mmse_oracle([2.0], sched) == pytest.approx(sched.k_gain[1] * 2.0, rel=1e-14, abs=0.0)

    def test_no_observations_returns_prior_mean(self):
        sched = make_schedule(5, 3.0, 1.0)
        assert mmse_oracle([], sched) == 0.0
        assert mmse_oracle([], sched, noise_mean=0.3) == 0.3

    def test_too_many_observations(self):
        sched = make_schedule(2, 3.0, 1.0)
        with pytest.raises(ValueError, match="exceed"):
            mmse_oracle([0.0, 0.0, 0.0], sched)

    @pytest.mark.parametrize("noise_mean", [0.0, 0.4])
    def test_matches_recursion_on_random_transcripts(self, noise_mean):
        rng = np.random.default_rng(SEED)
        for trial in range(20):
            n = int(rng.integers(1, 21))
            n_s = float(rng.uniform(0.5, 8.0))
            sigma2 = float(rng.uniform(0.3, 3.0))
            gain = float(rng.choice([1.0, -1.5, 2.0]))
            cb = make_codebook(n, 0.5, n_s)
            sched = make_schedule(n, n_s, sigma2)
            channel = AffineChannel(gain, NoiseModel("gaussian", sigma2, noise_mean))
            m = int(rng.integers(1, cb.message_count + 1))
            t = run_protocol(m, cb, sched, channel, EveTap(1.0), TrialLanes(SEED, trial))
            bob = _bob_estimate(t, gain)
            oracle = mmse_oracle(t.y[1:] / gain, sched, noise_mean=noise_mean)
            assert abs(bob - oracle) <= 1e-9 * (1.0 + abs(bob))

    def test_sensitive_to_schedule_perturbation(self):
        # negative control: a 1e-6 nudge to one estimator gain must be caught
        sched = make_schedule(12, 3.0, 1.0)
        k_bad = sched.k_gain.copy()
        k_bad[7] *= 1.0 + 1e-6
        bad = dataclasses.replace(sched, k_gain=k_bad)
        channel = AffineChannel(1.0, NoiseModel("gaussian", 1.0))
        t = run_protocol(1, make_codebook(12, 0.5, 3.0), bad, channel, EveTap(1.0), TrialLanes(SEED, 0))
        bob = _bob_estimate(t)
        oracle = mmse_oracle(t.y[1:], sched)
        assert abs(bob - oracle) > 1e-9 * (1.0 + abs(bob))


def _gaussian_setup(n=6, rate=0.5, n_s=3.0, trial=0):
    channel = ThermalWiretapParams(eta=0.5, n_th=1.0)
    cb = make_codebook(n, rate, n_s)
    sched = make_schedule(n, n_s, channel.noise.variance)
    return cb, sched, channel, EveTap(1.0), TrialLanes(SEED, trial)


class TestRunProtocol:
    def test_noiseless_channel_decodes_every_message(self):
        channel = AffineChannel(1.0, NoiseModel("gaussian", 1e-30))
        cb = make_codebook(3, 1.0, 1.0)
        sched = make_schedule(3, 1.0, 1e-30)
        for m in range(1, cb.message_count + 1):
            t = run_protocol(m, cb, sched, channel, EveTap(1.0), TrialLanes(SEED, m))
            assert t.m_hat == m
            assert t.theta_n == pytest.approx(cb.midpoint(m), abs=1e-9)

    def test_transcript_is_consistent(self):
        cb, sched, channel, tap, lanes = _gaussian_setup()
        t = run_protocol(2, cb, sched, channel, tap, lanes)
        assert len(t.x) == len(t.y) == len(t.noise) == 7
        assert t.x[0] == cb.midpoint(2) == t.theta_m
        assert np.allclose(t.y, channel.gain * (t.x + t.noise), rtol=0, atol=1e-12)
        assert math.isfinite(t.w0)
        # sender's power never exceeds the budget wildly (statistical elsewhere)
        assert np.all(np.isfinite(t.x))

    def test_message_domain(self):
        cb, sched, channel, tap, lanes = _gaussian_setup()
        with pytest.raises(ValueError, match="message"):
            run_protocol(0, cb, sched, channel, tap, lanes)
        with pytest.raises(ValueError, match="message"):
            run_protocol(cb.message_count + 1, cb, sched, channel, tap, lanes)

    def test_error_event_implies_large_deviation(self):
        # errors can only happen when the decoder statistic leaves the half-gap cell
        cb, sched, channel, tap, _ = _gaussian_setup(n=2, rate=0.95)
        errors = 0
        for trial in range(4000):
            t = run_protocol(1 + trial % cb.message_count, cb, sched, channel, tap, TrialLanes(SEED, trial))
            if t.m_hat != t.m:
                errors += 1
                assert abs(t.theta_n - t.theta_m) > cb.half_gap
            elif abs(t.theta_n - t.theta_m) <= cb.half_gap * (1 - 1e-12):
                assert t.m_hat == t.m
        assert errors > 0  # the regime is chosen so some errors occur

    @pytest.mark.parametrize("gain", [2.0, 0.5])
    def test_gain_reduces_to_unit_gain_bitwise(self, gain):
        # power-of-two gains divide exactly, so transcripts must match bit for bit
        noise = NoiseModel("two-point", 1.0)
        cb = make_codebook(5, 0.5, 3.0)
        sched = make_schedule(5, 3.0, 1.0)
        for trial in range(50):
            t_scaled = run_protocol(2, cb, sched, AffineChannel(gain, noise), EveTap(1.0), TrialLanes(SEED, trial))
            t_unit = run_protocol(2, cb, sched, AffineChannel(1.0, noise), EveTap(1.0), TrialLanes(SEED, trial))
            assert t_scaled.theta_n == t_unit.theta_n
            assert t_scaled.m_hat == t_unit.m_hat
            assert np.array_equal(t_scaled.x, t_unit.x)
            assert np.array_equal(t_scaled.y, gain * t_unit.y)

    def test_declared_nonzero_mean_is_subtracted(self):
        # a biased but declared noise must not bias the decoder statistic
        noise = NoiseModel("uniform", 1.0, mean=0.8)
        channel = AffineChannel(1.0, noise)
        cb = make_codebook(6, 0.5, 3.0)
        sched = make_schedule(6, 3.0, 1.0)
        devs = []
        for trial in range(4000):
            t = run_protocol(3, cb, sched, channel, EveTap(1.0), TrialLanes(SEED, trial))
            devs.append(t.theta_n - t.theta_m)
        devs = np.array(devs)
        predicted = 2.0 ** (-2 * 6 * awgn_capacity(3.0, 1.0))
        assert abs(devs.mean()) <= 5 * math.sqrt(predicted / 4000)
        assert devs.var(ddof=1) == pytest.approx(predicted, rel=0.25, abs=0.0)
