"""The process's program store: key completeness, sharing, concurrency.

``repro.compile`` goes through one memory-only
:class:`~repro.serve.registry.ProgramRegistry`
(:data:`repro.serve.registry.PROGRAMS`).  These tests pin what it
promises: *every* :class:`CompileOptions` field participates in the
key, so two compiles differing in any single option never share a
program; ``None`` and ``CompileOptions()`` share one; a hit performs
no translation; and concurrent callers of one key converge on a single
program from exactly one translation (single-flight), with exact
counters.  Each test runs on a fresh store (the ``programs`` fixture).
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.serve import registry
from repro.translator import compiler
from repro.translator.compiler import (
    CompileOptions,
    canonical_options_key,
    compile_source,
)

APPS = {**ALL_APPS, **EXTRA_APPS}
#: A bundled source: flipping any option compiles it.
SRC = APPS["stencil"].source
OPTION_FIELDS = [f.name for f in dataclasses.fields(CompileOptions)]


@pytest.fixture(autouse=True)
def store(programs):
    return programs


@pytest.fixture
def translations(monkeypatch):
    """Thread ids of every ``compile_program`` call, in call order."""
    calls = []
    plain = compiler.compile_program

    def counting(*args, **kwargs):
        calls.append(threading.get_ident())
        return plain(*args, **kwargs)

    monkeypatch.setattr(compiler, "compile_program", counting)
    return calls


def _flipped(field_name):
    default = getattr(CompileOptions(), field_name)
    assert isinstance(default, bool), (
        f"new non-bool CompileOptions field {field_name!r}: extend this "
        f"suite's flip helper so the key audit still covers every field")
    return CompileOptions(**{field_name: not default})


def _compiled(source, options=None):
    return repro.compile(source, options).compiled


class TestKeyCoversEveryOption:
    @pytest.mark.parametrize("field_name", OPTION_FIELDS)
    def test_single_flipped_option_never_shares_a_program(self, field_name):
        base = _compiled(SRC)
        flipped = _compiled(SRC, _flipped(field_name))
        assert flipped is not base, (
            f"CompileOptions.{field_name} does not participate in the "
            f"program-store key")
        # Same flipped options again -> the flipped entry is shared.
        assert _compiled(SRC, _flipped(field_name)) is flipped

    def test_none_and_default_options_share_one_entry(self, store):
        assert _compiled(SRC) is _compiled(SRC, CompileOptions())
        stats = store.stats_snapshot()
        assert (stats["compiles"], stats["memory_hits"]) == (1, 1)

    def test_canonical_key_lists_every_field(self):
        key_names = [name for name, _ in canonical_options_key(None)]
        assert sorted(key_names) == sorted(OPTION_FIELDS)
        assert canonical_options_key(None) == \
            canonical_options_key(CompileOptions())


class TestPerCallInfo:
    def test_miss_then_hit(self, store):
        first, a = store.load_or_compile(SRC)
        second, b = store.load_or_compile(SRC)
        assert (a, b) == ("compiled", "hit_memory")
        assert second is first
        assert _compiled(SRC) is first

    def test_bypass_reports_itself_and_touches_no_stats(self, store):
        """``compile_source`` is the translator itself: a fresh program
        per call, and the store never sees it."""
        stored = _compiled(SRC)
        before = store.stats_snapshot()
        fresh = compile_source(SRC)
        assert fresh is not stored and compile_source(SRC) is not fresh
        assert store.stats_snapshot() == before


class TestProcessStore:
    def test_hit_performs_zero_translations(self, translations):
        _compiled(APPS["bfs"].source)
        assert len(translations) == 1
        for _ in range(3):
            _compiled(APPS["bfs"].source)
        assert len(translations) == 1

    def test_a_fresh_store_translates_again(self, monkeypatch):
        src = APPS["md"].source
        a = _compiled(src)
        monkeypatch.setattr(registry, "PROGRAMS", registry.ProgramRegistry())
        assert _compiled(src) is not a

    def test_cached_program_runs_are_independent(self):
        # Two runs off one stored program must not share runtime state.
        app = APPS["kmeans"]
        prog = repro.compile(app.source)
        args1 = app.args_for("test")
        args2 = app.args_for("test")
        r1 = prog.run(app.entry, args1, machine="desktop", ngpus=2)
        r2 = prog.run(app.entry, args2, machine="desktop", ngpus=2)
        assert r1.elapsed == pytest.approx(r2.elapsed)
        for name in app.outputs:
            assert np.array_equal(args1[name], args2[name])


class TestConcurrentCompiles:
    N = 16

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N)
        results, errors = [None] * self.N, []

        def worker(i):
            try:
                barrier.wait(timeout=60)
                results[i] = fn(i)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        return results

    def test_sixteen_threads_translate_once(self, translations):
        results = self._hammer(lambda i: _compiled(SRC))
        assert all(r is results[0] for r in results)
        assert len(translations) == 1, (
            f"{len(translations)} translations of one key")

    def test_same_key_converges_on_one_program_and_exact_stats(self, store):
        results = self._hammer(lambda i: _compiled(SRC))
        assert all(r is results[0] for r in results)
        stats = store.stats_snapshot()
        assert (stats["compiles"], stats["memory_hits"]) == (1, self.N - 1)
        # The store holds the key: one more call is a pure hit.
        assert _compiled(SRC) is results[0]
        assert store.stats_snapshot()["memory_hits"] == self.N

    def test_distinct_keys_compile_concurrently_without_loss(self, store):
        sources = [APPS[name].source
                   for name in ("stencil", "jacobi", "md", "bfs")]
        results = self._hammer(lambda i: _compiled(sources[i % len(sources)]))
        # All callers of one source share one object.
        for j in range(len(sources)):
            group = results[j::len(sources)]
            assert all(r is group[0] for r in group)
        stats = store.stats_snapshot()
        assert stats["compiles"] == len(sources)
        assert stats["memory_hits"] == self.N - len(sources)
