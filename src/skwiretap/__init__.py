"""Feedback-coded private communication over lossy bosonic wiretap channels.

Implements the Schalkwijk-Kailath feedback protocol on the classical channel
induced by coherent encoding plus homodyne detection, the closed-form rate,
error, and privacy-leakage bounds that go with it, and a reproducible Monte
Carlo harness that checks the simulation against every analytic prediction.
"""

from .channels import AffineChannel, EveTap, NoiseModel, ThermalWiretapParams
from .harness import (
    ConfigError,
    Diagnostics,
    ExperimentConfig,
    ExperimentReport,
    MessageSelection,
    compare_bounds,
    run_experiment,
    wilson_interval,
)
from .infotheory import (
    BoundNotActiveError,
    BoundQuery,
    LeakageBudget,
    TetrationBound,
    awgn_capacity,
    chebyshev_error_bound,
    g_entropy,
    induced_sigma2,
    leakage_budget,
    phi,
    phi_inverse,
    rate_squeezed_homodyne,
    sk_error_bound,
    tetration_error_bound,
    tetration_order,
)
from .protocol import (
    BobState,
    Codebook,
    SkSchedule,
    Transcript,
    bob_round,
    make_codebook,
    make_schedule,
    mmse_oracle,
)

__version__ = "1.0.0"
