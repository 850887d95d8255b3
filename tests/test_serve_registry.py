"""Persistent compiled-program registry: round trips, corruption, restarts.

The registry is a cache, not a database: every way an on-disk entry can
be damaged (truncation anywhere in the file, flipped payload bytes, a
foreign file under the right name) must degrade to "log, evict,
recompile" -- never to an exception reaching the caller.  The pay-off
it exists for is pinned too: a second *process* compiling the same
source is a disk hit, and a revived program is observationally
identical to the original (bit-identical arrays, identical modeled
time), and it carries only what a run reads: its ``explain`` report,
generated text and runs equal a fresh translation's, and the front end
is re-derived from the stored source once, when something asks for it.
"""

import hashlib
import io
import logging
import pickle
import pickletools
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.apps.md import SPEC as MD_C
from repro.bench.multinode import STENCIL_PROBES_SOURCE
from repro.frontend import cast as C
from repro.frontend.fortran import parse_fortran
from repro.frontend.parser import parse
from repro.serve import registry as registry_mod
from repro.serve.registry import (
    MAGIC,
    ProgramRegistry,
    RegistryError,
    freeze_program,
    registry_key,
    thaw_program,
    translator_fingerprint,
)
from repro.translator import compiler
from repro.translator.compiler import (
    CompileOptions,
    clear_compile_cache,
    compile_program,
    compile_source,
)
from tests.test_fortran_apps import MD_FORTRAN

APPS = {**ALL_APPS, **EXTRA_APPS}
REPO = Path(__file__).resolve().parent.parent
FUSE = CompileOptions(fuse=True)


@pytest.fixture
def registry(tmp_path):
    return ProgramRegistry(tmp_path / "registry")


def _run(program, entry, args, ngpus=2):
    run = repro.AccProgram(program).run(entry, args, ngpus=ngpus)
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    return arrays, run


def _run_app(program, name, ngpus=2):
    spec = APPS[name]
    return _run(program, spec.entry, spec.args_for("tiny"), ngpus)


def _texts(compiled):
    """Every generated text of a program: kernels in plan and region
    order (fused plans live in regions only), host functions."""
    prog = repro.AccProgram(compiled)
    return ([prog.kernel_source(name) for name in compiled.kernel_names()],
            [[p.source for p in r.plans] for r in compiled.regions],
            {f: prog.host_source(f) for f in compiled.params})


def _case(name):
    """(source, fresh translation under ``options``, entry, args maker)."""
    if name == "md_fortran":
        return (MD_FORTRAN,
                lambda options: compile_program(parse_fortran(MD_FORTRAN),
                                                options),
                "md", lambda: MD_C.args_for("tiny"))
    spec = APPS[name]
    return (spec.source,
            lambda options: compile_source(spec.source, options, cache=False),
            spec.entry, lambda: spec.args_for("tiny"))


class TestFreezeThaw:
    @pytest.mark.parametrize(
        "app_name,options",
        [(app, options) for app in sorted(APPS) for options in (None, FUSE)]
        + [("md_fortran", None)])
    def test_revived_program_is_observationally_identical(
            self, registry, app_name, options):
        """A disk hit explains, prints and runs like a fresh translation."""
        source, translate, entry, make_args = _case(app_name)
        original = translate(options)
        registry.put(source, options, original)
        revived = ProgramRegistry(registry.root).get(source, options)
        assert revived is not None and revived.program is None
        assert repro.AccProgram(revived).explain().render() == \
            repro.AccProgram(original).explain().render()
        assert _texts(revived) == _texts(original)
        base, run0 = _run(original, entry, make_args())
        got, run1 = _run(revived, entry, make_args())
        for name in base:
            np.testing.assert_array_equal(got[name], base[name],
                                          err_msg=f"{app_name}.{name}")
        assert run1.elapsed == run0.elapsed
        assert run1.kernel_launches == run0.kernel_launches

    def test_threads_share_one_retranslation(self, monkeypatch):
        """Eight threads explain one thawed program: one re-translation
        runs, and every thread gets the same report."""
        spec = APPS["gradpipe"]
        revived = thaw_program(freeze_program(
            compile_source(spec.source, FUSE, cache=False)))
        expected = repro.AccProgram(
            compile_source(spec.source, FUSE, cache=False)).explain().render()
        translations = []
        plain = compiler.compile_program

        def counting(*args, **kwargs):
            translations.append(threading.get_ident())
            return plain(*args, **kwargs)

        monkeypatch.setattr(compiler, "compile_program", counting)
        n = 8
        barrier = threading.Barrier(n)
        reports, errors = [None] * n, []

        def worker(i):
            try:
                barrier.wait(timeout=60)
                reports[i] = repro.AccProgram(revived).explain().render()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(translations) == 1
        assert reports == [expected] * n

    def test_full_is_the_program_itself_when_it_has_its_tree(self):
        fresh = compile_source(APPS["md"].source, cache=False)
        assert fresh.full() is fresh

    def test_full_refuses_a_translation_that_differs(self):
        spec = APPS["stencil"]
        revived = thaw_program(freeze_program(
            compile_source(spec.source, cache=False)))
        revived.host_source += "\n# not what this source translates to\n"
        with pytest.raises(compiler.CompileError, match="does not reproduce"):
            revived.full()

    def test_a_tree_without_source_does_not_freeze(self):
        tree = parse(APPS["stencil"].source)
        built = C.Program(functions=tree.functions, globals=tree.globals)
        with pytest.raises(RegistryError, match="source text"):
            freeze_program(compile_program(built))

    def test_freeze_leaves_the_original_runnable(self):
        """Freezing must not strip the live program's kernel callables."""
        spec = APPS["stencil"]
        original = compile_source(spec.source, cache=False)
        freeze_program(original)
        assert all(p.fn is not None for p in original.plans
                   if p.source_info is not None)


class TestKeys:
    def test_every_option_field_changes_the_entry_path(self, registry):
        import dataclasses
        src = APPS["stencil"].source
        paths = {registry.path_for(src, None)}
        for f in dataclasses.fields(CompileOptions):
            flipped = CompileOptions(
                **{f.name: not getattr(CompileOptions(), f.name)})
            paths.add(registry.path_for(src, flipped))
        assert len(paths) == 1 + len(dataclasses.fields(CompileOptions))

    def test_default_and_none_share_an_entry(self, registry):
        src = APPS["stencil"].source
        assert registry.path_for(src, None) == \
            registry.path_for(src, CompileOptions())

    def test_distinct_sources_distinct_entries(self):
        assert registry_key(APPS["md"].source) != \
            registry_key(APPS["bfs"].source)


class TestCorruptEntries:
    def _store(self, registry, app_name="stencil"):
        spec = APPS[app_name]
        compiled = compile_source(spec.source, cache=False)
        path = registry.put(spec.source, None, compiled)
        # Evict the in-process front so get() really reads the disk.
        registry._memory.clear()
        return spec.source, path

    def test_round_trip_via_disk(self, registry):
        source, path = self._store(registry)
        assert path.exists()
        assert registry.get(source) is not None

    @pytest.mark.parametrize("keep", [0, 3, 7, 20, 47, 200, -1])
    def test_truncation_anywhere_evicts_and_misses(self, registry, keep):
        """Cut the file inside the magic, the header, the checksum, or
        mid-payload: every prefix must behave like a miss."""
        source, path = self._store(registry)
        blob = path.read_bytes()
        assert len(blob) > 200
        path.write_bytes(blob[:keep] if keep >= 0 else blob[:-1])
        assert registry.get(source) is None
        assert not path.exists(), "corrupt entry must be evicted"
        assert registry.stats_snapshot()["corrupt_evictions"] == 1

    def test_flipped_payload_byte_fails_checksum(self, registry):
        source, path = self._store(registry)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert registry.get(source) is None
        assert not path.exists()

    def test_foreign_file_is_evicted_not_raised(self, registry):
        source, path = self._store(registry)
        path.write_bytes(b"this is not a frozen program")
        assert registry.get(source) is None
        assert not path.exists()

    def test_unpicklable_payload_with_valid_checksum(self, registry):
        """Checksum-valid garbage (a bad writer, not bitrot) still
        degrades to a miss."""
        source, path = self._store(registry)
        payload = b"\x80\x04garbage-that-will-not-unpickle"
        header = struct.Struct(">8s32sQ32s").pack(
            MAGIC, translator_fingerprint(), len(payload),
            hashlib.sha256(payload).digest())
        path.write_bytes(header + payload)
        assert registry.get(source) is None
        assert not path.exists()
        assert registry.stats_snapshot()["corrupt_evictions"] == 1

    def test_corrupt_entry_recompiles_and_heals(self, registry):
        source, path = self._store(registry)
        path.write_bytes(path.read_bytes()[:50])
        program, outcome = registry.load_or_compile(source)
        assert outcome == "compiled"
        assert path.exists(), "recompilation must re-persist the entry"
        _run_app(program, "stencil")

    def test_previous_entry_format_is_evicted_as_foreign(self, registry):
        """An entry in the format before the translator fingerprint
        (magic, length, checksum, pickled tree) is another format."""
        source, path = self._store(registry)
        payload = pickle.dumps({"program": None})
        path.write_bytes(struct.Struct(">8sQ32s").pack(
            b"RPROG1\n\0", len(payload), hashlib.sha256(payload).digest())
            + payload + bytes(64))
        program, outcome = registry.load_or_compile(source)
        assert outcome == "compiled"
        assert registry.stats_snapshot()["foreign_evictions"] == 1
        _run_app(program, "stencil")


class TestTranslatorFingerprint:
    def test_derived_from_the_front_end_and_translator_code(self):
        assert len(translator_fingerprint()) == 32
        assert translator_fingerprint() is translator_fingerprint()

    def test_entry_of_another_translator_is_recompiled(
            self, registry, monkeypatch, caplog):
        """An entry written by another translator -- here one whose
        kernels differ from what this one emits -- is evicted and
        recompiled, never run as is."""
        spec = APPS["shift_scale"]
        stale = compile_source(spec.source, cache=False)
        for plan in stale.plans:
            plan.source_info.source += "# emitted by an older translator\n"
        monkeypatch.setattr(registry_mod, "translator_fingerprint",
                            lambda: b"\x01" * 32)
        registry.put(spec.source, None, stale)
        monkeypatch.undo()
        fresh_registry = ProgramRegistry(registry.root)
        with caplog.at_level(logging.WARNING, logger=registry_mod.__name__):
            program, outcome = fresh_registry.load_or_compile(spec.source)
        assert outcome == "compiled"
        assert fresh_registry.stats_snapshot()["foreign_evictions"] == 1
        assert "another translator" in caplog.text
        fresh = compile_source(spec.source, cache=False)
        assert [p.source for p in program.plans] == \
            [p.source for p in fresh.plans]
        # The recompiled entry is this translator's: the next process hits.
        again, outcome = ProgramRegistry(registry.root).load_or_compile(
            spec.source)
        assert outcome == "hit_disk"
        assert [p.source for p in again.plans] == \
            [p.source for p in fresh.plans]


class TestEntryBudget:
    """What a frozen entry holds, in counts: the ``compile_cold``
    programs (every bundled source and the multinode ablation program,
    with and without fusion) freeze no front-end state."""

    FRONT_END = {"Program", "FunctionDef", "Scope", "Symbol",
                 "LoopAnalysis", "AccParallel", "AccLoop"}
    #: Memoised objects (every distinct object but small ints, floats,
    #: booleans and None) and bytes of the 22 payloads.  They were
    #: 21,125 objects and 285,933 bytes while entries pickled the tree,
    #: the scopes and the analyses.
    MAX_OBJECTS = 6_600
    MAX_BYTES = 152_000

    def payloads(self):
        sources = {name: spec.source for name, spec in APPS.items()}
        sources["stencil_probes"] = STENCIL_PROBES_SOURCE
        return [freeze_program(compile_program(parse(source), options))
                for _, source in sorted(sources.items())
                for options in (None, FUSE)]

    def test_front_end_state_is_not_frozen_and_entries_are_small(self):
        classes = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                classes.add(name)
                return super().find_class(module, name)

        payloads = self.payloads()
        assert len(payloads) == 22
        objects = 0
        for payload in payloads:
            Recording(io.BytesIO(payload)).load()
            objects += sum(1 for op, _, _ in pickletools.genops(payload)
                           if op.name == "MEMOIZE")
        assert not classes & self.FRONT_END, classes & self.FRONT_END
        assert objects <= self.MAX_OBJECTS
        assert sum(map(len, payloads)) <= self.MAX_BYTES


class TestLoadOrCompile:
    def test_outcome_ladder(self, registry):
        src = APPS["jacobi"].source
        _, first = registry.load_or_compile(src)
        _, second = registry.load_or_compile(src)
        assert (first, second) == ("compiled", "hit_memory")
        fresh = ProgramRegistry(registry.root)  # same dir, new process-front
        _, third = fresh.load_or_compile(src)
        _, fourth = fresh.load_or_compile(src)
        assert (third, fourth) == ("hit_disk", "hit_memory")

    def test_single_flight_under_contention(self, registry):
        clear_compile_cache()
        src = APPS["heat2d"].source
        n = 12
        barrier = threading.Barrier(n)
        results, errors = [None] * n, []

        def worker(i):
            barrier.wait()
            try:
                results[i] = registry.load_or_compile(src)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        programs = {id(p) for p, _ in results}
        assert len(programs) == 1, "contending threads must share one program"
        assert registry.stats_snapshot()["compiles"] == 1
        assert sum(1 for _, o in results if o == "compiled") == 1


class TestProcessRestart:
    SCRIPT = """\
import sys
import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.serve.registry import ProgramRegistry

registry = ProgramRegistry(sys.argv[1])
spec = {**ALL_APPS, **EXTRA_APPS}["stencil"]
program, outcome = registry.load_or_compile(spec.source)
args = spec.args_for("tiny")
repro.AccProgram(program).run(spec.entry, args, ngpus=2)
print("outcome:" + outcome)
print("checksum:" + repr(float(args[spec.outputs[0]].sum())))
"""

    def test_second_process_hits_disk_with_identical_results(self, tmp_path):
        """The acceptance-criteria restart: compile, restart the
        process, observe a disk hit and bit-identical results."""
        reg_dir = str(tmp_path / "registry")

        def run_once():
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, reg_dir],
                env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"},
                capture_output=True, text=True, timeout=300, cwd=REPO)
            assert proc.returncode == 0, proc.stderr
            out = dict(line.split(":", 1) for line in
                       proc.stdout.strip().splitlines())
            return out["outcome"], out["checksum"]

        first, second = run_once(), run_once()
        assert first[0] == "compiled"
        assert second[0] == "hit_disk"
        assert first[1] == second[1]
