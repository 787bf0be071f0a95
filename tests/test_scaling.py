"""Exact scaling invariances of the batch kernel, and the mean shift that is not yet exact.

Powers of two and sign flips commute with every rounding the kernel does,
and n_s/sigma2 does not change, so each of these maps every report field by
a power of two or a sign, bit for bit:

- (n_s, sigma2) times 4^k: each x and noise draw, and the noise mean, times
  2^k; both var_theta, the power means and their standard errors times 4^k;
- the gain times 2^k: both var_theta, and the Chebyshev bound, times 4^k;
- the gain times -1: the skewness of theta changes sign.

Every other compared field is unchanged. Acceptance criterion 11 checks the
first two at once on the acceptance configs; these properties check each on
drawn configs. A skipped draw is a hypothesis event: ``pytest
--hypothesis-show-statistics tests/test_scaling.py`` counts them.

Shifting the noise mean changes nothing in exact arithmetic, since the
protocol subtracts the declared mean, but the kernel works in absolute
coordinates, so its rounding grows with 2^(n C) relative to theta's spread:
below 10 bits it stays within 1e-12, and from 10 to 25 bits within a few
roundings times 2^(n C).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from skwiretap.acceptance import _exact, _field
from skwiretap.channels import NOISE_FAMILIES, AffineChannel, EveTap, NoiseModel, ThermalWiretapParams
from skwiretap.harness import CHUNK_TRIALS, ConfigError, ExperimentConfig, run_experiment
from skwiretap.infotheory import awgn_capacity

pytestmark = pytest.mark.byte_pinned

# the report fields and diagnostics that each relation maps
_FIELDS = (
    "error_count", "max_abs_offdiag_corr", "theta_skewness", "theta_excess_kurtosis",
    "empirical_var_theta", "predicted_var_theta", "power_mean", "power_se", "analytic_error_bound",
)
# var_theta's fourth central sums stay normal above this, so a power of two scales them exactly
_SMALLEST_VAR_THETA = 2.0**-480


def _affine(cfg, gain=None, variance=None, mean=None, n_s=None):
    """``cfg`` on an affine channel of its noise family with the given fields replaced;
    a thermal channel's noise is Gaussian with zero mean."""
    noise = cfg.channel.noise
    channel = AffineChannel(
        cfg.channel.gain if gain is None else gain,
        NoiseModel(noise.family, noise.variance if variance is None else variance, noise.mean if mean is None else mean),
    )
    return dataclasses.replace(cfg, channel=channel, n_s=cfg.n_s if n_s is None else n_s)


@st.composite
def _configs(draw, max_bits=None, min_trials=1, min_bits=0.0):
    """Accepted configs of every noise family, n 1..40, up to two chunks of trials, with n C below
    ``max_bits`` and, where n = 40 reaches it, at least ``min_bits``; None for a draw the validator refuses."""
    family = draw(st.sampled_from(NOISE_FAMILIES))
    if family == "gaussian" and draw(st.booleans()):
        channel = ThermalWiretapParams(eta=draw(st.floats(0.05, 1.0)), n_th=draw(st.floats(0.0, 4.0)))
    else:
        gain = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from((1.0, -1.0)))
        noise = NoiseModel(family, draw(st.floats(0.1, 10.0)), draw(st.sampled_from((0.0, 0.25, -3.0))))
        channel = AffineChannel(gain, noise)
    n_s = draw(st.floats(0.1, 10.0))
    capacity = awgn_capacity(n_s, channel.noise.variance)
    top = 40 if max_bits is None else min(40, max(1, math.ceil(max_bits / capacity) - 1))
    n = draw(st.integers(min(top, max(1, math.ceil(min_bits / capacity))), top))
    try:
        return ExperimentConfig(
            channel=channel, n_s=n_s, tap=EveTap(1.0), n=n, rate=draw(st.floats(0.05, 1.0)),
            trials=draw(st.integers(min_trials, 2 * CHUNK_TRIALS)), root_seed=draw(st.integers(0, 2**64 - 1)),
        )
    except ConfigError:
        return None


def _skip(reason):
    """Reject the draw, counting ``reason`` as its hypothesis event."""
    event(f"skipped: {reason}")
    reject()


@settings(max_examples=100)
@given(cfg=_configs(), k=st.integers(-3, 3), j=st.integers(-3, 3))
def test_powers_of_two_and_sign_flips_map_every_field_exactly(cfg, k, j):
    if cfg is None:
        _skip("the validator refuses the drawn config")
    scale, gain, noise = 4.0**k, 2.0**j, cfg.channel.noise
    try:
        copies = (
            _affine(cfg, variance=noise.variance * scale, mean=noise.mean * 2.0**k, n_s=cfg.n_s * scale),
            _affine(cfg, gain=cfg.channel.gain * gain),
            _affine(cfg, gain=-cfg.channel.gain),
        )
    except ConfigError:
        _skip("the validator refuses a scaled copy")
    base, *scaled = run_experiment((cfg, *copies))
    if cfg.trials > 1 and min(r.empirical_var_theta for r in (base, *scaled)) < _SMALLEST_VAR_THETA:
        _skip("var_theta near the subnormal range")
    chebyshev = base.analytic_error_bound_kind == "chebyshev"
    factors = (
        dict(empirical_var_theta=scale, predicted_var_theta=scale, power_mean=scale, power_se=scale),
        dict(empirical_var_theta=gain * gain, predicted_var_theta=gain * gain,
             analytic_error_bound=gain * gain if chebyshev else 1.0),
        dict(theta_skewness=-1.0),
    )
    for relation, report, factor in zip(("(n_s, sigma2) x4^k", "gain x2^k", "gain x-1"), scaled, factors):
        for name in _FIELDS:
            expected = _exact(_field(base, name), factor.get(name, 1.0))
            assert _exact(_field(report, name)) == expected, (relation, name)


def _mean_shift(cfg):
    """The largest relative change of var_theta and the power means when the noise mean moves
    from 0 to 0.25 and to 3 on the same draws; the error counts must not move."""
    reports = run_experiment(tuple(_affine(cfg, mean=mean) for mean in (0.0, 0.25, 3.0)))
    base, *shifted = reports
    worst = 0.0
    for report in shifted:
        assert report.error_count == base.error_count
        worst = max(
            worst,
            abs(report.empirical_var_theta / base.empirical_var_theta - 1.0),
            float(np.max(np.abs(report.power_mean / base.power_mean - 1.0))),
        )
    return worst


def _bits(cfg):
    """n C: the bits by which the kernel's absolute coordinates outgrow theta's spread."""
    return cfg.n * awgn_capacity(cfg.n_s, cfg.channel.noise.variance)


# at least 100 trials: a sample variance of fewer trials can cancel, and so amplify any rounding
@given(cfg=_configs(max_bits=10.0, min_trials=100))
def test_a_mean_shift_moves_nothing_below_10_bits(cfg):
    if cfg is None or _bits(cfg) >= 10.0:
        _skip("the validator refuses the drawn config, or n C >= 10 bits at n = 1")
    assert _mean_shift(cfg) <= 1e-12


# Between 10 and 25 bits the shift grows as 2^(n C) times one rounding: over 2560 distinct drawn configs of
# at least 100 trials it peaked at 2.07 * 2^(n C - 52) (two-point noise, n C 11.0 bits), so the factor 16
# leaves a margin of 7.7.
_SHIFT_ROUNDINGS = 16.0


@given(cfg=_configs(max_bits=25.0, min_trials=100, min_bits=10.0))
def test_a_mean_shift_moves_by_roundings_from_10_to_25_bits(cfg):
    if cfg is None or not 10.0 <= _bits(cfg) < 25.0:
        _skip("the validator refuses the drawn config, or n C is outside [10, 25) bits")
    assert _mean_shift(cfg) <= _SHIFT_ROUNDINGS * 2.0 ** (_bits(cfg) - 52)


# At n C >= 25 bits the shift is far above 1e-12 (2.3e-9 already at 24.8 bits on a drawn config).
# Simulating in error coordinates is to bring it back to 1e-12 at every n.
@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the kernel's absolute coordinates round at 2^(n C) times theta's spread",
)
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
@pytest.mark.parametrize("n", [25, 30, 40])
def test_a_mean_shift_moves_nothing_at_25_bits_and_more(family, n):
    cfg = ExperimentConfig(
        channel=AffineChannel(1.0, NoiseModel(family, 1.0)), n_s=3.0, tap=EveTap(1.0), n=n,
        rate=0.5, trials=CHUNK_TRIALS, root_seed=20260809,
    )
    assert math.isclose(_bits(cfg), n)
    assert _mean_shift(cfg) <= 1e-12
