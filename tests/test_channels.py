"""Channel models, noise families, and the counter-based randomness contract."""

import math

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtr, ndtri

from skwiretap.channels import (
    ROLE_FORWARD,
    ROLE_MESSAGE,
    ROLE_TAP,
    AffineChannel,
    EveTap,
    NoiseModel,
    RngLane,
    ThermalWiretapParams,
    TrialLanes,
    eve_tap_transmit,
    forward_transmit,
    lane_uniforms,
    noise_from_uniforms,
    sample_noise,
)
from skwiretap.harness import ExperimentConfig, _chunk

SEED = 314159


class StubLane:
    """Duck-typed lane returning a constant uniform; lets tests force draws."""

    def __init__(self, u: float) -> None:
        self.u = u

    def uniforms(self, count: int) -> np.ndarray:
        return np.full(count, self.u)

    def uniform(self, position: int) -> float:
        return self.u


class TestTypes:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError, match="family"):
            NoiseModel("lognormal", 1.0)
        with pytest.raises(ValueError, match="variance"):
            NoiseModel("gaussian", 0.0)
        with pytest.raises(ValueError, match="variance"):
            NoiseModel("gaussian", math.inf)
        with pytest.raises(ValueError, match="mean"):
            NoiseModel("gaussian", 1.0, math.nan)

    def test_affine_rejects_zero_gain(self):
        with pytest.raises(ValueError, match="gain"):
            AffineChannel(0.0, NoiseModel("gaussian", 1.0))

    def test_thermal_params(self):
        p = ThermalWiretapParams(eta=0.5, n_th=1.0)
        assert p.noise.variance == 1.0
        with pytest.raises(ValueError, match="eta"):
            ThermalWiretapParams(eta=0.0, n_th=0.0)
        with pytest.raises(ValueError, match="n_th"):
            ThermalWiretapParams(eta=0.5, n_th=-1.0)
        with pytest.raises(ValueError, match="variance=inf must be finite and > 0"):
            ThermalWiretapParams(eta=1e-320, n_th=0.0)  # sigma2 = 1/(4 eta) overflows

    def test_tap_rejects_noiseless(self):
        with pytest.raises(ValueError, match="variance"):
            EveTap(0.0)

    @pytest.mark.parametrize(
        "eta,n_th,var", [(1.0, 0.0, 0.25), (0.5, 1.0, 1.0), (0.25, 0.0, 1.0)]
    )
    def test_thermal_runs_as_its_induced_affine_channel(self, eta, n_th, var):
        thermal = ThermalWiretapParams(eta=eta, n_th=n_th)
        assert thermal.gain == 1.0
        assert thermal.noise == NoiseModel("gaussian", var, 0.0)
        affine = AffineChannel(1.0, NoiseModel("gaussian", thermal.noise.variance))
        cfgs = [
            ExperimentConfig(channel=ch, n_s=2.0, tap=EveTap(1.0), n=5, rate=0.5, trials=300, root_seed=SEED)
            for ch in (thermal, affine)
        ]
        thermal_run, affine_run = (_chunk(cfg, 0, 300) for cfg in cfgs)
        assert thermal_run.keys() == affine_run.keys()
        for key, value in thermal_run.items():
            assert np.array_equal(value, affine_run[key]), key


class TestRngLanes:
    def test_rereading_is_bit_identical(self):
        a = RngLane(SEED, 17, ROLE_FORWARD).uniforms(64)
        b = RngLane(SEED, 17, ROLE_FORWARD).uniforms(64)
        assert np.array_equal(a, b)

    def test_positional_access_matches_stream(self):
        lane = RngLane(SEED, 3, ROLE_TAP)
        seq = lane.uniforms(16)
        for pos in (0, 1, 7, 15):
            assert lane.uniform(pos) == seq[pos]

    def test_draws_strictly_inside_unit_interval(self):
        u = RngLane(SEED, 0, ROLE_FORWARD).uniforms(100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert not np.any(u == 0.5)

    @pytest.mark.parametrize(
        "lane_a,lane_b",
        [
            ((SEED, 0, ROLE_FORWARD), (SEED, 1, ROLE_FORWARD)),
            ((SEED, 0, ROLE_FORWARD), (SEED, 0, ROLE_TAP)),
            ((SEED, 0, ROLE_FORWARD), (SEED, 0, ROLE_MESSAGE)),
            ((SEED, 5, ROLE_TAP), (SEED + 1, 5, ROLE_TAP)),
        ],
    )
    def test_lane_independence(self, lane_a, lane_b):
        a = RngLane(*lane_a).uniforms(100_000)
        b = RngLane(*lane_b).uniforms(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_batch_lanes_match_fresh_lanes(self):
        trials = [0, 9, 12345, 2**56 - 1]
        for role, count in [(ROLE_FORWARD, 11), (ROLE_TAP, 1), (ROLE_MESSAGE, 3)]:
            batch = lane_uniforms(SEED, role, trials, count)
            assert batch.shape == (count, len(trials)) and batch.flags.c_contiguous
            for column, trial in zip(batch.T, trials):
                assert np.array_equal(column, RngLane(SEED, trial, role).uniforms(count))

    def test_high_seeds_do_not_alias(self):
        # a list key with a word >= 2^63 would be rounded through float64,
        # merging seeds in blocks of 2048 and message lanes in blocks of 32 trials
        high = 2**63 + 12345
        assert not np.array_equal(RngLane(high, 0, 0).uniforms(4), RngLane(high + 7, 0, 0).uniforms(4))
        a = RngLane(high, 0, ROLE_MESSAGE).uniforms(1)
        b = RngLane(high, 1, ROLE_MESSAGE).uniforms(1)
        assert not np.array_equal(a, b)
        key = np.array([high, (ROLE_FORWARD << 56) | 5], dtype=np.uint64)
        raw = Philox(key=key).random_raw(3)
        assert np.array_equal(RngLane(high, 5, ROLE_FORWARD).uniforms(3), ((raw >> np.uint64(11)) + 0.5) * 2.0**-53)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="trial"):
            RngLane(SEED, -1, ROLE_FORWARD)
        with pytest.raises(ValueError, match="root_seed"):
            RngLane(1 << 64, 0, ROLE_FORWARD)

    def test_batch_domain_checks(self):
        with pytest.raises(ValueError, match="trial"):
            lane_uniforms(SEED, ROLE_FORWARD, [3, -1], 2)
        with pytest.raises(ValueError, match="trial"):
            lane_uniforms(SEED, ROLE_FORWARD, [2**56], 2)
        with pytest.raises(ValueError, match="root_seed"):
            lane_uniforms(1 << 64, ROLE_FORWARD, [0], 2)
        with pytest.raises(ValueError, match="role"):
            lane_uniforms(SEED, 256, [0], 2)
        assert lane_uniforms(SEED, ROLE_FORWARD, [], 5).shape == (5, 0)
        assert lane_uniforms(SEED, ROLE_FORWARD, [1, 2], 0).shape == (0, 2)

    def test_trial_lanes_bundle(self):
        lanes = TrialLanes(SEED, 7)
        assert lanes.forward.role == ROLE_FORWARD
        assert lanes.tap.role == ROLE_TAP
        assert lanes.message.role == ROLE_MESSAGE


class TestPhiloxKernel:
    """The batch kernel against numpy.random.Philox keyed with exact uint64 words."""

    @pytest.mark.parametrize("role", [ROLE_FORWARD, ROLE_TAP, ROLE_MESSAGE])
    def test_matches_numpy_philox(self, role):
        # the uniforms read the top 53 bits of each raw word, the only bits any path reads
        rng = np.random.default_rng(2718 + role)
        seeds = [0, 2**63 - 1, 2**63, 2**64 - 1] + [int(s) for s in rng.integers(0, 2**64, 6, dtype=np.uint64)]
        trials = [0, 1, 2**56 - 1] + [int(t) for t in rng.integers(0, 2**56, 5)]
        for seed in seeds:
            for count in range(1, 31):  # crosses the 4-word block boundary
                batch = lane_uniforms(seed, role, trials, count)
                assert batch.shape == (count, len(trials))
                for column, trial in zip(batch.T, trials):
                    key = np.array([seed, (role << 56) | trial], dtype=np.uint64)
                    raw = Philox(key=key).random_raw(count)
                    assert np.array_equal(column, ((raw >> np.uint64(11)) + 0.5) * 2.0**-53)

    def test_many_lanes_span_several_passes(self):
        # enough lanes that the kernel splits them into passes
        trials = np.arange(40_000)
        batch = lane_uniforms(SEED, ROLE_FORWARD, trials, 3)
        for trial in (0, 16_383, 16_384, 39_999):
            assert np.array_equal(batch[:, trial], RngLane(SEED, trial, ROLE_FORWARD).uniforms(3))


def _lane_u(count, trial=0):
    return RngLane(SEED, trial, ROLE_FORWARD).uniforms(count)


class TestNoiseFamilies:
    N = 10**6

    @pytest.mark.parametrize(
        "family,mean,var,kurt",
        [
            ("gaussian", 0.0, 1.0, 3.0),
            ("gaussian", -0.7, 2.5, 3.0),
            ("uniform", 0.0, 1.0, 1.8),
            ("uniform", 1.0, 0.5, 1.8),
            ("two-point", 0.0, 1.0, 1.0),
            ("shifted-exponential", 0.0, 1.0, 9.0),
        ],
    )
    def test_declared_moments(self, family, mean, var, kurt):
        nm = NoiseModel(family, var, mean)
        draws = noise_from_uniforms(nm, _lane_u(self.N))
        se_mean = math.sqrt(var / self.N)
        # Var[s^2-moment estimator] = (kurt - 1) var^2 / N for i.i.d. draws;
        # the O(1/N) floor covers bias terms, which dominate when kurt = 1
        se_var = var * math.sqrt(max(kurt - 1.0, 0.0) / self.N)
        assert abs(draws.mean() - mean) <= 5 * se_mean
        assert abs(draws.var(ddof=1) - var) <= 5 * se_var + 10 * var / self.N

    def test_two_point_support(self):
        draws = noise_from_uniforms(NoiseModel("two-point", 1.0, 0.0), _lane_u(10_000))
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_uniform_support_half_width(self):
        draws = noise_from_uniforms(NoiseModel("uniform", 1.0, 0.0), _lane_u(self.N))
        assert np.max(np.abs(draws)) <= math.sqrt(3.0)
        assert np.max(np.abs(draws)) > math.sqrt(3.0) * 0.9999

    def test_shifted_exponential_skewness(self):
        draws = noise_from_uniforms(NoiseModel("shifted-exponential", 1.0, 0.0), _lane_u(self.N))
        centered = draws - draws.mean()
        skewness = np.mean(centered**3) / np.mean(centered**2) ** 1.5
        assert skewness == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "two-point", "shifted-exponential"])
    def test_map_leaves_input_unchanged(self, family):
        # the map writes over a copy, never the caller's array, and its bits are
        # those of the textbook expressions (1/2 is never drawn, but maps to +1)
        nm = NoiseModel(family, 1.7, -0.4)
        u = lane_uniforms(SEED, ROLE_FORWARD, np.arange(300), 7)
        u[0, :3] = [0.5, 2.0**-53, 1.0 - 2.0**-53]
        before = u.copy()
        draws = noise_from_uniforms(nm, u)
        assert np.array_equal(u, before)
        assert not np.shares_memory(draws, u)
        scale = math.sqrt(nm.variance)
        expected = {
            "gaussian": nm.mean + scale * ndtri(u),
            "uniform": nm.mean + math.sqrt(3.0 * nm.variance) * (2.0 * u - 1.0),
            "two-point": nm.mean + scale * np.where(u < 0.5, -1.0, 1.0),
            "shifted-exponential": nm.mean + scale * (-np.log1p(-u) - 1.0),
        }[family]
        assert np.array_equal(draws, expected)

    def test_sample_noise_matches_vector_path(self):
        nm = NoiseModel("shifted-exponential", 2.0, 0.5)
        lane = RngLane(SEED, 4, ROLE_FORWARD)
        vector = noise_from_uniforms(nm, lane.uniforms(6))
        for pos in range(6):
            assert sample_noise(nm, lane, pos) == vector[pos]


class TestForwardTransmit:
    def test_forced_draw(self):
        # gaussian var=1: a uniform of ndtr(0.5) forces the noise value 0.5
        channel = AffineChannel(2.0, NoiseModel("gaussian", 1.0))
        y = forward_transmit(channel, 1.0, StubLane(float(ndtr(0.5))), 0)
        assert y == pytest.approx(3.0, abs=1e-12)

    def test_degenerate_noise_limit(self):
        channel = AffineChannel(3.0, NoiseModel("gaussian", 1e-30))
        y = forward_transmit(channel, 2.0, RngLane(SEED, 0, ROLE_FORWARD), 0)
        assert y == pytest.approx(6.0, abs=1e-9)

    def test_noise_recoverable(self):
        channel = AffineChannel(2.0, NoiseModel("uniform", 1.0, 0.25))
        lane = RngLane(SEED, 8, ROLE_FORWARD)
        y = forward_transmit(channel, 1.5, lane, 3)
        assert y / 2.0 - 1.5 == pytest.approx(sample_noise(channel.noise, lane, 3), abs=1e-12)

    def test_sample_mean_of_noise(self):
        channel = AffineChannel(1.0, NoiseModel("gaussian", 1.0))
        u = _lane_u(10**6, trial=2)
        y = channel.gain * (0.0 + noise_from_uniforms(channel.noise, u))
        assert abs(y.mean()) <= 0.004

    def test_induced_channel_moments(self):
        # fixed input through the induced channel: mean x, variance sigma2
        channel = ThermalWiretapParams(eta=0.5, n_th=1.0)
        x = 1.25
        draws = x + noise_from_uniforms(channel.noise, _lane_u(10**5, trial=3))
        sigma2 = channel.noise.variance
        assert abs(draws.mean() - x) <= 5 * math.sqrt(sigma2 / 10**5)
        assert abs(draws.var(ddof=1) - sigma2) <= 5 * sigma2 * math.sqrt(2.0 / 10**5)


class TestEveTap:
    def test_forced_cancellation(self):
        tap = EveTap(4.0)
        y = 1.7
        u = float(ndtr(-y / 2.0))  # s = -y
        assert eve_tap_transmit(tap, y, StubLane(u)) == pytest.approx(0.0, abs=1e-12)

    def test_tap_variance(self):
        tap = EveTap(0.8)
        u = RngLane(SEED, 6, ROLE_TAP).uniforms(10**6)
        w = 0.0 + math.sqrt(tap.variance) * ndtri(u)
        assert w.var(ddof=1) == pytest.approx(0.8, rel=0.01, abs=0.0)

    def test_scalar_matches_vector(self):
        tap = EveTap(0.8)
        lane = RngLane(SEED, 6, ROLE_TAP)
        w_vec = 0.5 + math.sqrt(0.8) * ndtri(lane.uniforms(3))
        for pos in range(3):
            assert eve_tap_transmit(tap, 0.5, lane, pos) == w_vec[pos]
