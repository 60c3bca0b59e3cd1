"""Shared test fixtures."""

import pytest

from sphreg import autodiff as ag


@pytest.fixture
def tape_counter(monkeypatch):
    """Counts every autodiff Tensor constructed while the test runs (the
    tape's nodes, plus any leaves the test wraps) in ``["nodes"]``."""
    counter = {"nodes": 0}
    init = ag.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        counter["nodes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ag.Tensor, "__init__", counting_init)
    return counter
