"""Shared fixtures: every test gets a clean global runtime slate."""

import pytest

import repro


def pytest_configure(config):
    # The serve/async suites mark themselves with per-test deadlines.
    # CI installs pytest-timeout, which enforces them; registering the
    # marker here keeps local runs (without the plugin) warning-free.
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test deadline (pytest-timeout)"
    )
    config.addinivalue_line(
        "markers", "slow: minutes-long soak; runs only under --runslow"
    )


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run the tests marked slow (long soaks)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: pass --runslow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Ensure no runtime leaks between tests."""
    if repro.is_initialized():
        repro.shutdown()
    yield
    if repro.is_initialized():
        repro.shutdown()


@pytest.fixture
def sim_runtime():
    """A small simulated cluster: 4 nodes x 4 CPUs, 1 GPU each."""
    runtime = repro.init(backend="sim", num_nodes=4, num_cpus=4, num_gpus=1)
    yield runtime
    repro.shutdown()
