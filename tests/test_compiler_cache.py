"""Compile-cache concurrency and key-completeness regression tests.

The module-global compile cache used to be unsynchronized: concurrent
compiles raced on the dict insert and lost or miscounted hits, and
``clear_compile_cache`` could interleave with a concurrent insert.
These tests pin the fixed behavior: all access is atomic, concurrent
callers of one key converge on a single shared program, and *every*
:class:`CompileOptions` field participates in the cache key, so two
compiles differing in any single option never share a cached program.
"""

import dataclasses
import threading

import pytest

from repro.apps import ALL_APPS, EXTRA_APPS
from repro.translator.compiler import (
    CompileOptions,
    canonical_options_key,
    clear_compile_cache,
    compile_cache_stats,
    compile_cache_stats_snapshot,
    compile_source,
    compile_source_with_info,
)

APPS = {**ALL_APPS, **EXTRA_APPS}
#: A bundled source: flipping any option compiles it.
SRC = APPS["stencil"].source
OPTION_FIELDS = [f.name for f in dataclasses.fields(CompileOptions)]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _flipped(field_name):
    default = getattr(CompileOptions(), field_name)
    assert isinstance(default, bool), (
        f"new non-bool CompileOptions field {field_name!r}: extend this "
        f"suite's flip helper so the key audit still covers every field")
    return CompileOptions(**{field_name: not default})


class TestKeyCoversEveryOption:
    @pytest.mark.parametrize("field_name", OPTION_FIELDS)
    def test_single_flipped_option_never_shares_a_program(self, field_name):
        base = compile_source(SRC)
        flipped = compile_source(SRC, _flipped(field_name))
        assert flipped is not base, (
            f"CompileOptions.{field_name} does not participate in the "
            f"compile-cache key")
        # Same flipped options again -> the flipped entry is shared.
        assert compile_source(SRC, _flipped(field_name)) is flipped

    def test_none_and_default_options_share_one_entry(self):
        assert compile_source(SRC) is compile_source(SRC, CompileOptions())
        assert compile_cache_stats_snapshot() == {"hits": 1, "misses": 1}

    def test_canonical_key_lists_every_field(self):
        key_names = [name for name, _ in canonical_options_key(None)]
        assert sorted(key_names) == sorted(OPTION_FIELDS)
        assert canonical_options_key(None) == \
            canonical_options_key(CompileOptions())


class TestPerCallInfo:
    def test_miss_then_hit(self):
        _, first = compile_source_with_info(SRC)
        _, second = compile_source_with_info(SRC)
        assert (first.hit, second.hit) == (False, True)
        assert first.key == second.key
        assert not first.bypassed

    def test_bypass_reports_itself_and_touches_no_stats(self):
        _, info = compile_source_with_info(SRC, cache=False)
        assert info.bypassed and not info.hit
        assert compile_cache_stats_snapshot() == {"hits": 0, "misses": 0}


class TestConcurrentCompiles:
    N = 16

    def _hammer(self, fn):
        barrier = threading.Barrier(self.N)
        results, errors = [None] * self.N, []

        def worker(i):
            barrier.wait()
            try:
                results[i] = fn(i)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        return results

    def test_same_key_converges_on_one_program_and_exact_stats(self):
        results = self._hammer(lambda i: compile_source(SRC))
        assert all(r is results[0] for r in results)
        stats = compile_cache_stats_snapshot()
        # Every call is accounted exactly once.  Racing translations
        # may each count as a miss (both did the work), but at least
        # one miss and no lost updates.
        assert stats["hits"] + stats["misses"] == self.N
        assert stats["misses"] >= 1
        # The cache now holds the key: one more call is a pure hit.
        before = compile_cache_stats_snapshot()
        assert compile_source(SRC) is results[0]
        after = compile_cache_stats_snapshot()
        assert after["hits"] == before["hits"] + 1

    def test_distinct_keys_compile_concurrently_without_loss(self):
        sources = [APPS[name].source
                   for name in ("stencil", "jacobi", "md", "bfs")]

        def fn(i):
            return compile_source(sources[i % len(sources)])

        results = self._hammer(fn)
        # All callers of one source share one object.
        for j in range(len(sources)):
            group = results[j::len(sources)]
            assert all(r is group[0] for r in group)
        stats = compile_cache_stats_snapshot()
        assert stats["hits"] + stats["misses"] == self.N

    def test_clear_races_never_corrupt_counters(self):
        def fn(i):
            if i % 4 == 0:
                clear_compile_cache()
                return None
            return compile_source(SRC)

        self._hammer(fn)
        stats = compile_cache_stats_snapshot()
        assert stats["hits"] >= 0 and stats["misses"] >= 0
        clear_compile_cache()
        assert compile_cache_stats_snapshot() == {"hits": 0, "misses": 0}
        # The exported dict object is the live one (mutated in place,
        # identity stable across clears).
        assert compile_cache_stats == {"hits": 0, "misses": 0}
