import multiprocessing

import pytest
from hypothesis import HealthCheck, settings

from skwiretap import harness

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the fuzz tests at 1000 examples: pytest --hypothesis-profile=fuzz
settings.register_profile("fuzz", parent=settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _no_pool_outlives_its_test():
    # a pool kept past its test would run the next test's chunks under the
    # monkeypatches of the one that forked it
    yield
    assert harness._pool is None
    assert multiprocessing.active_children() == []


@pytest.fixture()
def forked_pools(monkeypatch):
    """(max_workers, live child processes) for each pool ``harness`` creates."""
    pools = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append((max_workers, len(multiprocessing.active_children())))
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return pools
