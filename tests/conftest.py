"""Fixtures shared by the test modules."""

import pytest

from okounkov_lab import _hull


@pytest.fixture
def elimination_log(monkeypatch):
    """A list that logs each ``_hull.null_space`` call from now on as
    ``("null_space", n)``, n its number of columns, and each
    ``_hull.echelon`` call with whether a null_space call is running it."""
    log, running = [], []
    echelon, null_space = _hull.echelon, _hull.null_space

    def echelon_spy(rows):
        log.append("echelon in null_space" if running else "echelon")
        return echelon(rows)

    def null_space_spy(rows, n):
        log.append(("null_space", n))
        running.append(True)
        try:
            return null_space(rows, n)
        finally:
            running.pop()

    monkeypatch.setattr(_hull, "echelon", echelon_spy)
    monkeypatch.setattr(_hull, "null_space", null_space_spy)
    return log
