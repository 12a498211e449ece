"""Fixtures shared by the test modules."""

import pytest

from skewfit import bimonotone_check, recovery


@pytest.fixture
def pair_checks(monkeypatch):
    """The reports of every ``bimonotone_check`` that recovery runs."""
    reports = []
    monkeypatch.setattr(recovery, "bimonotone_check",
                        lambda g, tol: reports.append(bimonotone_check(g, tol)) or reports[-1])
    return reports
