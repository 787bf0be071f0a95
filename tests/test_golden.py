"""Golden report bytes: the SHA-256 of ``report.to_json()`` is pinned per config.

A change that alters any simulated draw, reduction order or serialization
detail changes these digests, so "byte-identical to before" is a test rather
than a promise. The digests must be the same at every worker count. One
``transcripts.csv`` is pinned the same way.
"""

import hashlib
import io

import pytest

from skwiretap.channels import AffineChannel, EveTap, NoiseModel, ThermalWiretapParams
from skwiretap.harness import (
    CHUNK_TRIALS,
    ExperimentConfig,
    MessageSelection,
    collect_transcripts,
    run_experiment,
    write_transcripts_csv,
)

pytestmark = pytest.mark.byte_pinned

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
        "983652a31e0641a637b77d6734d870b110e236f3f69c9f5be7080ba15ea777a9",
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
        "00242895ed1df16cf905c494c1ed6d5f6016ec647cc073b633a66b40a930f961",
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
        "0e2c23a2d36a066b34405d938694c5038684846d3396d6764da4ebe4b56c4d33",
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
        "ebb86b07bc2433ef8f3c975b9d12237c8b8ef45a62f115727e6b0d817064b204",
    ),
    # one feedback round: every per-round sum reduces a single feedback column
    "thermal_one_round_chunks": (
        lambda: ExperimentConfig(
            channel=ThermalWiretapParams(eta=0.7, n_th=0.5),
            n_s=2.0,
            tap=EveTap(1.0),
            n=1,
            rate=1.0,
            trials=CHUNK_TRIALS + 301,
            root_seed=577215,
            message_selection=MessageSelection("uniform-random"),
        ),
        "07196d791160ee8b9fc8a0dc76dd7847e7a80248656ddcb7653210a448e17ea6",
    ),
    # two feedback rounds, skewed noise with a nonzero mean: one co-moment pair
    "affine_exponential_two_rounds": (
        lambda: ExperimentConfig(
            channel=AffineChannel(1.5, NoiseModel("shifted-exponential", 0.8, -0.3)),
            n_s=3.0,
            tap=EveTap(2.0),
            n=2,
            rate=0.5,
            trials=2 * CHUNK_TRIALS + 9,
            root_seed=141421,
            message_selection=MessageSelection("round-robin"),
        ),
        "f501ef55a7a897ad65401605f80fe8dd08620d6358dd62d4c786d4d6a9a608b3",
    ),
}

# every transcript row of a run that crosses a chunk boundary
TRANSCRIPTS_CONFIG = ExperimentConfig(
    channel=AffineChannel(0.8, NoiseModel("gaussian", 1.5, 0.4)),
    n_s=3.0,
    tap=EveTap(0.7),
    n=3,
    rate=0.5,
    trials=CHUNK_TRIALS + 40,
    root_seed=173205,
    message_selection=MessageSelection("uniform-random"),
)
TRANSCRIPTS_DIGEST = "255a45ba9568936300dafe72a215a0df92b61195abbf6ac319e09bba8f74ab55"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_pinned(name, threads):
    factory, digest = GOLDEN[name]
    report = run_experiment(factory(), threads=threads)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_transcripts_csv_bytes_pinned():
    fh = io.StringIO()
    write_transcripts_csv(collect_transcripts(TRANSCRIPTS_CONFIG), fh)
    assert hashlib.sha256(fh.getvalue().encode()).hexdigest() == TRANSCRIPTS_DIGEST
