import pytest
from hypothesis import HealthCheck, settings

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
    the list that records the positional arguments of each call."""

    def install(module, name: str) -> list:
        calls = []
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    return install


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible without -s
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
