"""Golden report bytes: the SHA-256 of ``report.to_json()`` is pinned per config.

A change that alters any simulated draw, reduction order or serialization
detail changes these digests, so "byte-identical to before" is a test rather
than a promise. The digests must be the same at every worker count.
"""

import hashlib

import pytest

from skwiretap.channels import AffineChannel, EveTap, NoiseModel, ThermalWiretapParams
from skwiretap.harness import CHUNK_TRIALS, ExperimentConfig, MessageSelection, run_experiment

GOLDEN = {
    # thermal channel, message drawn from the message lane
    "thermal_uniform_random": (
        lambda: ExperimentConfig(
            channel=ThermalWiretapParams(eta=0.5, n_th=1.0),
            n_s=3.0,
            tap=EveTap(1.0),
            n=6,
            rate=0.5,
            trials=3000,
            root_seed=161803,
            message_selection=MessageSelection("uniform-random"),
        ),
        "5d0710772814bfb3fb12a88a31a93a266bb0823f12801240e5919253df89cac1",
    ),
    # non-Gaussian affine channel, two chunk boundaries crossed
    "affine_uniform_chunks": (
        lambda: ExperimentConfig(
            channel=AffineChannel(2.0, NoiseModel("uniform", 1.0, 0.25)),
            n_s=3.0,
            tap=EveTap(0.5),
            n=5,
            rate=0.6,
            trials=2 * CHUNK_TRIALS + 77,
            root_seed=271828,
            message_selection=MessageSelection("uniform-random"),
        ),
        "03afd1cbdd14b8a4fcfc7df65643053aabf1168d6541842f8dfa0a17786a34e7",
    ),
    # root seed in the upper half of the 64-bit range
    "affine_two_point_high_seed": (
        lambda: ExperimentConfig(
            channel=AffineChannel(1.0, NoiseModel("two-point", 1.0)),
            n_s=3.0,
            tap=EveTap(1.0),
            n=4,
            rate=0.5,
            trials=2000,
            root_seed=2**63 + 12345,
            message_selection=MessageSelection("uniform-random"),
        ),
        "7cbe26d6e872a4745693695c5c35fae054549bc1cc5b4a1026225a1d63cb980b",
    ),
    # 40 feedback rounds over four chunks: pins the merge of the co-moment matrix
    "thermal_wide_round_robin": (
        lambda: ExperimentConfig(
            channel=ThermalWiretapParams(eta=0.5, n_th=1.0),
            n_s=3.0,
            tap=EveTap(1.0),
            n=40,
            rate=0.5,
            trials=3 * CHUNK_TRIALS + 11,
            root_seed=314159,
            message_selection=MessageSelection("round-robin"),
        ),
        "42066357091a6a43c1514f6af90c41dcdfb3b26be7ce6c6a4b523aa9bd958026",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_pinned(name, threads):
    factory, digest = GOLDEN[name]
    report = run_experiment(factory(), threads=threads)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
