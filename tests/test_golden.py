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
        lambda: ExperimentConfig.from_thermal(
            ThermalWiretapParams(eta=0.5, n_th=1.0, n_s=3.0),
            EveTap(1.0),
            n=6,
            rate=0.5,
            trials=3000,
            root_seed=161803,
            message_selection=MessageSelection.uniform_random(),
        ),
        "7bcabc186285e9a2ff1c390abd895d764185fb6dd0f3b95f0443fe69dab436c0",
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
            message_selection=MessageSelection.uniform_random(),
        ),
        "1bec16baf588247d1150f618133aa9bf916914d9468cb469992b01ca25545cc8",
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
            message_selection=MessageSelection.uniform_random(),
        ),
        "fdf144058e303f1a0e9f349f51764efceeb564ebebedfe4303ca4a6a1670a577",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_pinned(name, threads):
    factory, digest = GOLDEN[name]
    report = run_experiment(factory(), threads=threads)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
