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


@pytest.fixture
def programs(monkeypatch):
    """A fresh, empty program store in place of the process's (the one
    behind ``repro.compile`` and a registry-less ``ProgramService``)."""
    from repro.serve import registry

    store = registry.ProgramRegistry()
    monkeypatch.setattr(registry, "PROGRAMS", store)
    return store
