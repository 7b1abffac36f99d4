"""Fixtures shared by the test modules."""
import pytest

import qffn.circuits as circuits


@pytest.fixture
def compiles(monkeypatch):
    """The configs of every compile of the optimized circuit
    (``circuits._Compiled``) since the test began, in order."""
    built = []
    init = circuits._Compiled.__init__

    def counting(entry, config, theta):
        built.append(config)
        init(entry, config, theta)

    monkeypatch.setattr(circuits._Compiled, "__init__", counting)
    return built
