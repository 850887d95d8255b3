"""Shared fixtures for the test suite."""

import pytest


@pytest.fixture
def desktop():
    from repro.vcuda import DESKTOP_MACHINE, Platform

    return Platform(DESKTOP_MACHINE, 2)


@pytest.fixture
def recycler(monkeypatch):
    """A fresh, empty storage recycler in place of the process's."""
    from repro.vcuda import memory

    rec = memory.StorageRecycler(memory.RECYCLE_CAP)
    monkeypatch.setattr(memory, "RECYCLER", rec)
    return rec
