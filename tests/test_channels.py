"""Channel models, noise families, and the counter-based randomness contract."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import log1p, ndtr, ndtri

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
    lane_uniforms,
    noise_from_uniforms,
)
from skwiretap.harness import ExperimentConfig, _chunk, collect_transcripts
from skwiretap.protocol import make_codebook, make_schedule, run_protocol

SEED = 314159


class StubLane:
    """Duck-typed lane returning a constant uniform; lets tests force draws."""

    def __init__(self, u: float) -> None:
        self.u = u

    def uniforms(self, count: int) -> np.ndarray:
        return np.full(count, self.u)


def _run(channel, lanes, n=4, n_s=3.0):
    """One scalar-reference trial of message 1 on ``lanes``."""
    codebook = make_codebook(n, 0.5, n_s)
    schedule = make_schedule(n, n_s, channel.noise.variance)
    return run_protocol(1, codebook, schedule, channel, EveTap(4.0), lanes)


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
        with pytest.raises(ValueError, match=r"^eta=1e-320 makes the induced sigma2 overflow$"):
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
        # a position holds one value however far the lane is read
        lane = RngLane(SEED, 3, ROLE_TAP)
        seq = lane.uniforms(16)
        for count in (1, 2, 8, 15):
            assert np.array_equal(lane.uniforms(count), seq[:count])

    def test_draws_strictly_inside_unit_interval(self):
        u = lane_uniforms(SEED, ROLE_FORWARD, 0, 25_000, 4)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert not np.any(u == 0.5)

    @pytest.mark.parametrize(
        "lane_a,lane_b",
        [
            # (root_seed, role, first trial, position) of 100_000 consecutive trials
            ((SEED, ROLE_FORWARD, 0, 0), (SEED, ROLE_FORWARD, 1, 0)),
            ((SEED, ROLE_FORWARD, 0, 0), (SEED, ROLE_TAP, 0, 0)),
            ((SEED, ROLE_FORWARD, 0, 0), (SEED, ROLE_MESSAGE, 0, 0)),
            ((SEED, ROLE_TAP, 5, 0), (SEED + 1, ROLE_TAP, 5, 0)),
            ((SEED, ROLE_FORWARD, 0, 0), (SEED, ROLE_FORWARD, 0, 1)),  # two words of one block
            ((SEED, ROLE_FORWARD, 0, 0), (SEED, ROLE_FORWARD, 0, 4)),  # two position blocks
        ],
    )
    def test_lane_independence(self, lane_a, lane_b):
        a, b = (
            lane_uniforms(seed, role, first, first + 100_000, position + 1)[position]
            for seed, role, first, position in (lane_a, lane_b)
        )
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_batch_lanes_match_fresh_lanes(self):
        for start, stop in [(0, 3), (12345, 12350), (2**56 - 2, 2**56)]:
            for role, count in [(ROLE_FORWARD, 11), (ROLE_TAP, 1), (ROLE_MESSAGE, 3)]:
                batch = lane_uniforms(SEED, role, start, stop, count)
                assert batch.shape == (count, stop - start) and batch.flags.c_contiguous
                for column, trial in zip(batch.T, range(start, stop)):
                    assert np.array_equal(column, _pinned_lane(SEED, role, trial, count))

    def test_high_seeds_do_not_alias(self):
        # a list key with a word >= 2^63 would be rounded through float64,
        # merging seeds in blocks of 2048 and message lanes in blocks of 32 trials
        high = 2**63 + 12345
        assert not np.array_equal(_pinned_lane(high, 0, 0, 4), _pinned_lane(high + 7, 0, 0, 4))
        batch = lane_uniforms(high, ROLE_FORWARD, 0, 1, 4)[:, 0]
        assert not np.array_equal(batch, lane_uniforms(high + 7, ROLE_FORWARD, 0, 1, 4)[:, 0])
        a, b = lane_uniforms(high, ROLE_MESSAGE, 0, 2, 1)[0]
        assert a != b
        raw = Philox(counter=[5, 0, 0, 0], key=np.array([high, ROLE_FORWARD], dtype=np.uint64)).random_raw(3)
        expected = ((raw >> np.uint64(11)) + 0.5) * 2.0**-53
        assert np.array_equal(RngLane(high, 5, ROLE_FORWARD).uniforms(3), expected)
        assert np.array_equal(lane_uniforms(high, ROLE_FORWARD, 5, 6, 3)[:, 0], expected)

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="trial"):
            RngLane(SEED, -1, ROLE_FORWARD)
        with pytest.raises(ValueError, match="root_seed"):
            RngLane(1 << 64, 0, ROLE_FORWARD)

    def test_batch_domain_checks(self):
        with pytest.raises(ValueError, match="trial"):
            lane_uniforms(SEED, ROLE_FORWARD, -1, 3, 2)
        with pytest.raises(ValueError, match="trial"):
            lane_uniforms(SEED, ROLE_FORWARD, 2**56 - 1, 2**56 + 1, 2)
        with pytest.raises(ValueError, match="trial"):
            lane_uniforms(SEED, ROLE_FORWARD, 5, 4, 2)  # stop before start
        with pytest.raises(ValueError, match="root_seed"):
            lane_uniforms(1 << 64, ROLE_FORWARD, 0, 1, 2)
        with pytest.raises(ValueError, match="role"):
            lane_uniforms(SEED, 256, 0, 1, 2)
        with pytest.raises(ValueError, match="count"):
            lane_uniforms(SEED, ROLE_FORWARD, 0, 1, -1)
        assert lane_uniforms(SEED, ROLE_FORWARD, 3, 3, 5).shape == (5, 0)
        assert lane_uniforms(SEED, ROLE_FORWARD, 1, 3, 0).shape == (0, 2)

    def test_trial_lanes_bundle(self):
        lanes = TrialLanes(SEED, 7)
        assert lanes.forward.role == ROLE_FORWARD
        assert lanes.tap.role == ROLE_TAP


def _pinned_lane(seed, role, trial, count):
    """Positions 0..count-1 of a lane, straight from numpy's Philox: key (seed, role), counter (trial, block).

    The reference of the lane layout, one generator per block: ``lane_uniforms``, and ``RngLane`` through
    it, must match it bit for bit.
    """
    key = np.array([seed, role], dtype=np.uint64)
    raw = np.concatenate([Philox(counter=[trial, b, 0, 0], key=key).random_raw(4) for b in range(-(-count // 4))])
    return ((raw[:count] >> np.uint64(11)) + 0.5) * 2.0**-53


@pytest.mark.byte_pinned
class TestPhiloxKernel:
    """The batch draws against numpy.random.Philox keyed with exact uint64 words."""

    @pytest.mark.parametrize("role", [ROLE_FORWARD, ROLE_TAP, ROLE_MESSAGE])
    def test_matches_numpy_philox(self, role):
        # the uniforms read the top 53 bits of each raw word, the only bits any path reads
        rng = np.random.default_rng(2718 + role)
        seeds = [0, 2**63 - 1, 2**63, 2**64 - 1] + [int(s) for s in rng.integers(0, 2**64, 6, dtype=np.uint64)]
        chunks = [(0, 3), (2**56 - 3, 2**56)]  # trials 0 and 2^56 - 1 at the ends
        for seed in seeds:
            for start, stop in chunks:
                expected = [_pinned_lane(seed, role, trial, 30) for trial in range(start, stop)]
                for count in range(1, 31):  # crosses the 4-word block boundary
                    batch = lane_uniforms(seed, role, start, stop, count)
                    assert batch.shape == (count, stop - start)
                    for column, pinned in zip(batch.T, expected):
                        assert np.array_equal(column, pinned[:count])

    def test_column_depends_on_trial_and_position_only(self):
        batch = lane_uniforms(SEED, ROLE_FORWARD, 0, 40_000, 11)
        # a chunk that starts elsewhere reads the same columns
        for start, stop in [(1, 2), (16_383, 16_385), (39_990, 40_000), (8192, 16_384)]:
            assert np.array_equal(lane_uniforms(SEED, ROLE_FORWARD, start, stop, 11), batch[:, start:stop])
        # fewer rows are a prefix
        for count in (1, 3, 4, 5, 8):
            assert np.array_equal(lane_uniforms(SEED, ROLE_FORWARD, 0, 40_000, count), batch[:count])
        # a column is the pinned lane of its trial
        for trial in (0, 16_383, 16_384, 39_999):
            assert np.array_equal(batch[:, trial], _pinned_lane(SEED, ROLE_FORWARD, trial, 11))


def _lane_u(count, position=0):
    """Position ``position`` of the forward lanes of trials 0..count-1."""
    return lane_uniforms(SEED, ROLE_FORWARD, 0, count, position + 1)[position]


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
        u = lane_uniforms(SEED, ROLE_FORWARD, 0, 300, 7)
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
            "shifted-exponential": nm.mean + scale * (-log1p(-u) - 1.0),
        }[family]
        assert np.array_equal(draws, expected)


class TestForwardTransmit:
    def test_forced_draw(self):
        # gaussian var=1: a uniform of ndtr(0.5) forces the noise value 0.5 in every round
        channel = AffineChannel(2.0, NoiseModel("gaussian", 1.0))
        t = _run(channel, SimpleNamespace(forward=StubLane(float(ndtr(0.5))), tap=StubLane(0.5)))
        assert t.y == pytest.approx(2.0 * (t.x + 0.5), rel=0.0, abs=1e-12)

    def test_degenerate_noise_limit(self):
        channel = AffineChannel(3.0, NoiseModel("gaussian", 1e-30))
        t = _run(channel, TrialLanes(SEED, 0), n_s=1.0)
        assert t.y == pytest.approx(3.0 * t.x, rel=0.0, abs=1e-9)

    def test_noise_recoverable(self):
        # round i's noise is the forward lane's draw at position i
        channel = AffineChannel(2.0, NoiseModel("uniform", 1.0, 0.25))
        t = _run(channel, TrialLanes(SEED, 8))
        drawn = noise_from_uniforms(channel.noise, RngLane(SEED, 8, ROLE_FORWARD).uniforms(5))
        assert t.noise == pytest.approx(drawn, rel=0.0, abs=1e-12)

    def test_sample_mean_of_noise(self):
        channel = AffineChannel(1.0, NoiseModel("gaussian", 1.0))
        u = _lane_u(10**6, position=2)
        y = channel.gain * (0.0 + noise_from_uniforms(channel.noise, u))
        assert abs(y.mean()) <= 0.004

    def test_induced_channel_moments(self):
        # fixed input through the induced channel: mean x, variance sigma2
        channel = ThermalWiretapParams(eta=0.5, n_th=1.0)
        x = 1.25
        draws = x + noise_from_uniforms(channel.noise, _lane_u(10**5, position=3))
        sigma2 = channel.noise.variance
        assert abs(draws.mean() - x) <= 5 * math.sqrt(sigma2 / 10**5)
        assert abs(draws.var(ddof=1) - sigma2) <= 5 * sigma2 * math.sqrt(2.0 / 10**5)


class TestEveTap:
    def test_forced_cancellation(self):
        # tap variance 4: a tap uniform of ndtr(-y0 / 2) forces the tap noise -y0
        channel = AffineChannel(1.0, NoiseModel("gaussian", 1.0))
        forward = StubLane(float(ndtr(0.5)))
        y0 = _run(channel, SimpleNamespace(forward=forward, tap=StubLane(0.5))).y[0]
        t = _run(channel, SimpleNamespace(forward=forward, tap=StubLane(float(ndtr(-y0 / 2.0)))))
        assert t.w0 == pytest.approx(0.0, abs=1e-12)

    def test_tap_variance(self):
        channel = ThermalWiretapParams(0.5, 1.0)
        cfg = ExperimentConfig(channel=channel, n_s=2.0, tap=EveTap(0.8), n=1, rate=0.5, trials=10**4, root_seed=SEED)
        w = np.array([t.w0 - t.y[0] for t in collect_transcripts(cfg)])
        assert w.var(ddof=1) == pytest.approx(0.8, rel=5 * math.sqrt(2.0 / w.size), abs=0.0)
