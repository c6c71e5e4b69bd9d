import pytest
from hypothesis import HealthCheck, settings

import hyperhom.homology as homology

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps module.name for the test and returns
    the list that records the arguments of each call as (args, kwargs)."""

    def install(module, name: str) -> list:
        calls = []
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    return install


@pytest.fixture
def lost_torsion(monkeypatch):
    """Plant a wrong invariant factor: every factor 2 that the homology
    module reduces reads as 1, so RP2 loses its Z/2 class in every ring,
    alike on every route."""
    real = homology.chain_invariant_factors
    monkeypatch.setattr(
        homology, "chain_invariant_factors",
        lambda d: [tuple(1 if t == 2 else t for t in f) for f in real(d)],
    )


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible without -s
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
