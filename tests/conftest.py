import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

# Acceptance checks (tests/test_acceptance.py) register a line here as they
# run; the terminal summary prints one PASS/FAIL line per criterion so the
# outcome is readable without scrolling through the pytest log.
_ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    _ACCEPTANCE_LINES.append((name, bool(ok), detail))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240814)


@pytest.fixture
def bttb_calls(monkeypatch) -> list:
    """The operators of every BTTB apply made while the test runs, in order."""
    from fracwave import structured

    calls = []
    real_apply = structured.bttb_apply

    def counting_apply(op, u):
        calls.append(op)
        return real_apply(op, u)

    monkeypatch.setattr(structured, "bttb_apply", counting_apply)
    return calls


@pytest.fixture
def tau_calls(monkeypatch) -> list:
    """The spectra of every preconditioner apply the baseline steps make
    while the test runs, in order."""
    from fracwave import stepper

    calls = []
    real_apply = stepper.tau_apply

    def counting_apply(eigenvalues, v):
        calls.append(eigenvalues)
        return real_apply(eigenvalues, v)

    monkeypatch.setattr(stepper, "tau_apply", counting_apply)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for name, ok, detail in _ACCEPTANCE_LINES:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        tr.write_line(line, green=ok, red=not ok)
