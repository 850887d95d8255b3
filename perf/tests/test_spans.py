"""The span recorder measures itself before it measures the program."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_times_add_up_to_the_root_span_from_two_threads() -> None:
    assert spans.self_test(threads=2, tolerance=0.02) <= 0.02


def test_install_refuses_a_renamed_entry_point() -> None:
    module = types.ModuleType("perf_fake_layer")
    module.present = lambda: 1
    sys.modules[module.__name__] = module
    try:
        rec = spans.SpanRecorder()
        with pytest.raises(spans.MissingEntryPoint, match="renamed"):
            rec.install([("fake.present", module.__name__, "present"),
                         ("fake.renamed", module.__name__, "renamed")])
        # Nothing stays half-wrapped after the refusal.
        assert not hasattr(module.present, "__wrapped__")
    finally:
        del sys.modules[module.__name__]


def test_wrappers_come_off_again() -> None:
    module = types.ModuleType("perf_fake_layer2")

    class Layer:
        def work(self) -> int:
            return 41

        @property
        def state(self) -> int:
            return 1

    module.Layer = Layer
    sys.modules[module.__name__] = module
    try:
        rec = spans.SpanRecorder()
        rec.install([("fake.work", module.__name__, "Layer.work"),
                     ("fake.state", module.__name__, "Layer.state")])
        rec.set_op(0)
        assert Layer().work() == 41 and Layer().state == 1
        rec.uninstall()
        assert Layer().work() == 41 and Layer().state == 1
        table = rec.table()
        assert sorted(table.names[i] for i in table.name) == \
            ["fake.state", "fake.work"]
        assert (table.op == 0).all() and (table.parent == -1).all()
    finally:
        del sys.modules[module.__name__]
