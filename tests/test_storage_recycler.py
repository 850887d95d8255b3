"""Process-lifetime simulator storage (``repro.vcuda.memory.RECYCLER``).

``DeviceMemory`` blocks and ``ScratchArena`` slots at or above
``RECYCLE_FLOOR`` bytes are views over raw blocks that outlive the run
that first touched them.  Recycled storage holds its last owner's
bytes, so what used to be true by accident of fresh ``mmap`` pages is
pinned here:

(a) the recycler itself -- exact-size free list, newest block first,
    oldest evicted at the cap, nothing below the floor held;
(b) ``OutOfDeviceMemory`` is raised before any host storage is taken,
    and a load that overflows GPU k unwinds with every block of GPUs
    0..k-1 back in the free list;
(c) no program reads a block before writing it: every hand-out is
    filled with all-ones bytes (NaN as a float, -1 as an int) and the
    outputs, trip counts, modeled seconds and bus bytes do not move --
    through ``AccProgram.run`` and between two tenants of a
    ``ProgramService``;
(d) the sanitizer's poisoned frees are never recycled, and its seeded
    faults are diagnosed as before when every block is a recycled one;
(e) eight threads on one recycler never share a live block.

The count gate (hits == takes on a second ``stream``-shaped run, no
take at all at ``launch_small`` sizes) sits with the other allocation
budgets in ``tests/test_span_lowering.py``.
"""

import dataclasses
import random
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.api
from repro.apps import ALL_APPS, EXTRA_APPS, AppSpec
from repro.bench.machines import hypothetical_node
from repro.runtime.kernelctx import ScratchArena
from repro.serve import ProgramService, RunRequest
from repro.translator.compiler import CompileOptions
from repro.vcuda import OutOfDeviceMemory, Platform
from repro.vcuda import memory as vmem
from repro.vcuda.memory import (
    PURPOSE_SYSTEM,
    DeviceMemory,
    StorageRecycler,
)
from tests import test_gather_identity as identity
from tests import test_sanitizer as sanitizer_tests
from tests.test_memory_capacity import DISTRIBUTED_SRC, tiny_machine
from tests.util import run_source

APPS = {**ALL_APPS, **EXTRA_APPS}
NODE4 = hypothetical_node(4)
KIB = 1 << 10


class PoisoningRecycler(StorageRecycler):
    """Every block leaves full of all-ones bytes, fresh or recycled: a
    program that reads storage it has not written computes with NaN /
    -1 instead of a lucky zero."""

    def take(self, nbytes):
        raw = super().take(nbytes)
        raw.fill(0xFF)
        return raw


def poison_everything(monkeypatch) -> PoisoningRecycler:
    """From here on every device block and arena slot, whatever its
    size, comes poisoned out of a fresh recycler."""
    rec = PoisoningRecycler(vmem.RECYCLE_CAP)
    monkeypatch.setattr(vmem, "RECYCLE_FLOOR", 0)
    monkeypatch.setattr(vmem, "RECYCLER", rec)
    return rec


def held_blocks(rec: StorageRecycler) -> list[np.ndarray]:
    return [raw for blocks in rec._free.values() for _, raw in blocks]


# -- (a) the free list ---------------------------------------------------------


class TestStorageRecycler:
    def test_exact_size_newest_first(self):
        rec = StorageRecycler(1 << 20)
        a, b = rec.take(128 * KIB), rec.take(128 * KIB)
        assert a.dtype == np.uint8 and a.shape == (128 * KIB,)
        assert (rec.takes, rec.hits, rec.bytes_held) == (2, 0, 0)
        rec.give(a)
        rec.give(b)
        assert rec.bytes_held == 256 * KIB
        assert rec.take(128 * KIB + 1).shape == (128 * KIB + 1,)  # no fit
        assert rec.take(128 * KIB) is b
        assert rec.take(128 * KIB) is a
        assert (rec.takes, rec.hits, rec.bytes_held) == (5, 2, 0)

    def test_cap_evicts_the_oldest_block_whatever_its_size(self):
        rec = StorageRecycler(512 * KIB)
        old, mid, new = (np.empty(n * KIB, np.uint8) for n in (128, 256, 128))
        rec.give(old)
        rec.give(mid)
        rec.give(new)
        assert rec.bytes_held == 512 * KIB
        rec.give(np.empty(64 * KIB, np.uint8))
        assert rec.bytes_held == 448 * KIB
        assert rec.take(128 * KIB) is new
        assert rec.take(128 * KIB) is not old      # evicted: a fresh block
        assert rec.take(256 * KIB) is mid

    def test_nothing_below_the_floor_or_beyond_the_cap_is_held(self):
        rec = StorageRecycler(256 * KIB)
        rec.give(np.empty(vmem.RECYCLE_FLOOR - 1, np.uint8))
        rec.give(np.empty(256 * KIB + 1, np.uint8))
        assert rec.bytes_held == 0 and not held_blocks(rec)

    def test_floor_zero_still_holds_no_empty_block(self, monkeypatch):
        monkeypatch.setattr(vmem, "RECYCLE_FLOOR", 0)
        rec = StorageRecycler(256 * KIB)
        rec.give(np.empty(0, np.uint8))
        assert not held_blocks(rec)


class TestDeviceMemoryOverRecycledStorage:
    N = vmem.RECYCLE_FLOOR // 4          # floats: exactly the floor

    def test_buffer_is_a_typed_view_of_one_block(self, recycler):
        m = DeviceMemory(0, 1 << 30)
        buf = m.alloc("x", (self.N // 2, 2), np.float32, base=7,
                      purpose=PURPOSE_SYSTEM, fill=3)
        assert buf.data.shape == (self.N // 2, 2)
        assert buf.data.dtype == np.float32 and (buf.data == 3).all()
        assert buf.nbytes == 4 * self.N == buf.storage.shape[0]
        assert np.shares_memory(buf.data, buf.storage)
        assert (buf.base, buf.purpose) == (7, PURPOSE_SYSTEM)
        assert m.live_bytes_of(PURPOSE_SYSTEM) == 4 * self.N
        assert (recycler.takes, recycler.hits) == (1, 0)

    def test_free_gives_the_block_back_and_the_next_alloc_finds_it(
            self, recycler):
        m = DeviceMemory(0, 1 << 30)
        buf = m.alloc("x", self.N, np.float32, fill=1.0)
        block = buf.storage
        m.free(buf)
        assert recycler.bytes_held == 4 * self.N and buf.storage is None
        with pytest.raises(RuntimeError):
            buf.view()
        # Another device, another dtype: the key is the byte size.
        again = DeviceMemory(1, 1 << 30).alloc("y", self.N // 2, np.float64)
        assert again.storage is block and recycler.bytes_held == 0
        assert (recycler.takes, recycler.hits) == (2, 1)

    def test_free_all_returns_every_block(self, recycler):
        m = DeviceMemory(0, 1 << 30)
        for k in range(3):
            m.alloc(f"a{k}", self.N, np.float32)
        m.free_all()
        assert m.live_bytes == 0 and recycler.bytes_held == 12 * self.N

    def test_small_blocks_never_reach_the_recycler(self, recycler):
        m = DeviceMemory(0, 1 << 30)
        buf = m.alloc("x", self.N - 1, np.float32)
        assert buf.storage is None
        m.free(buf)
        assert (recycler.takes, recycler.bytes_held) == (0, 0)

    def test_slot_regrowth_and_release_return_arena_blocks(self, recycler):
        arena = ScratchArena()
        arena.slot(0, self.N, np.float32)
        grown = arena.slot(0, 2 * self.N, np.float32)
        assert recycler.bytes_held == 4 * self.N     # the outgrown block
        assert arena.slot(1, self.N, np.float32).shape == (self.N,)
        assert (recycler.takes, recycler.hits) == (3, 1)
        assert not np.shares_memory(grown, arena.slot(1, self.N, np.float32))
        arena.slot(2, 16, np.float32)                # below the floor
        arena.release()
        assert arena.nbytes == 0
        assert recycler.bytes_held == 12 * self.N and recycler.takes == 3


# -- (b) OutOfDeviceMemory before host storage ------------------------------


class TestOutOfDeviceMemory:
    def test_request_beyond_device_and_host_is_the_structured_error(
            self, recycler):
        m = DeviceMemory(0, 1 << 30)
        with pytest.raises(OutOfDeviceMemory):
            m.alloc("x", 1 << 50, np.float64)
        assert recycler.takes == 0 and m.live_bytes == 0

    def test_overflow_on_gpu_k_unwinds_and_returns_the_blocks_before_it(
            self, monkeypatch, recycler):
        monkeypatch.setattr(vmem, "RECYCLE_FLOOR", 0)
        rec = recycler
        platforms = []

        class Recorded(Platform):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                platforms.append(self)

        monkeypatch.setattr(repro.api, "Platform", Recorded)
        fits = tiny_machine(64 * KIB, 3)
        short = dataclasses.replace(
            fits, gpus=(fits.gpu, fits.gpu,
                        dataclasses.replace(fits.gpu,
                                            mem_capacity=24 * KIB)))
        n = 3 * 4096                     # 16 KiB per array per GPU

        def args():
            return {"n": n, "x": np.ones(n, np.float32),
                    "y": np.zeros(n, np.float32)}

        prog = repro.compile(DISTRIBUTED_SRC)
        # x fits everywhere; y fits GPUs 0 and 1 and overflows GPU 2.
        with pytest.raises(OutOfDeviceMemory):
            prog.run("scale", args(), machine=short, ngpus=3)
        failed = platforms[-1]
        assert [d.memory.accountant.live_total for d in failed.devices] \
            == [0, 0, 0]
        assert [d.memory.high_water_of("user") for d in failed.devices] \
            == [32 * KIB, 32 * KIB, 16 * KIB]
        assert (rec.takes, rec.hits, rec.bytes_held) == (5, 0, 5 * 16 * KIB)
        out = args()
        prog.run("scale", out, machine=fits, ngpus=3)
        assert (out["y"] == 2.0).all()
        assert rec.hits >= 5


# -- (c) written before read ----------------------------------------------------

EXTRA = {"jacobi": None, "stencil": None, "phasepipe": None,
         "gradpipe": CompileOptions(fuse=True)}


def program_case(name):
    if name in EXTRA:
        spec = APPS[name]
        return (repro.compile(spec.source, EXTRA[name]), spec.entry,
                spec.args_for("test"))
    return identity.case(name)


@pytest.mark.parametrize("ngpus", identity.NGPUS)
@pytest.mark.parametrize("name", identity.NAMES + sorted(EXTRA))
def test_no_program_reads_recycled_storage_before_writing_it(
        name, ngpus, monkeypatch):
    plain = identity.digest_of(*program_case(name), ngpus)
    if name not in EXTRA:
        assert plain == identity.GOLDEN[name, ngpus]
    rec = poison_everything(monkeypatch)
    first = identity.digest_of(*program_case(name), ngpus)
    takes, hits = rec.takes, rec.hits
    assert takes and rec.bytes_held
    second = identity.digest_of(*program_case(name), ngpus)
    # The second run ran on the first's storage, all of it.
    assert rec.hits - hits == rec.takes - takes > 0
    assert first == plain and second == plain


def test_a_tenant_never_sees_the_previous_tenants_data(monkeypatch):
    """Two tenants, two programs, equal array sizes, back to back on the
    same GPUs: the second tenant's run takes the first's blocks."""
    requests = {}
    for tenant, app in (("a", "jacobi"), ("b", "stencil")):
        spec = APPS[app]
        args = spec.args_for("test")           # both: n = 1024 floats
        want = spec.snapshot(args)
        repro.compile(spec.source).run(spec.entry, want, machine=NODE4,
                                       ngpus=2)
        requests[tenant] = (RunRequest(source=spec.source, entry=spec.entry,
                                       args=args, ngpus=2, tenant=tenant),
                            want)
    rec = poison_everything(monkeypatch)
    service = ProgramService(NODE4)
    try:
        for served, tenant in enumerate("aba"):
            request, want = requests[tenant]
            request = dataclasses.replace(
                request, args=AppSpec.snapshot(request.args))
            hits = rec.hits
            service.submit(request).result(timeout=60)
            for key, value in want.items():
                if isinstance(value, np.ndarray):
                    np.testing.assert_array_equal(request.args[key], value)
            assert rec.hits > hits or not served
    finally:
        service.shutdown(timeout=60)


# -- (d) the sanitizer -----------------------------------------------------------


class TestPoisonOnFree:
    N = vmem.RECYCLE_FLOOR // 4

    @pytest.mark.parametrize("dtype,poison", [
        (np.float32, np.nan), (np.int32, np.iinfo(np.int32).max)])
    def test_poisoned_storage_is_not_handed_out_again(self, recycler, dtype,
                                                      poison):
        m = DeviceMemory(0, 1 << 30)
        m.poison_on_free = True
        buf = m.alloc("x", self.N, dtype, fill=1)
        stale = buf.data
        m.free(buf)
        assert recycler.bytes_held == 0
        again = m.alloc("y", self.N, dtype, fill=2)
        assert not np.shares_memory(again.data, stale)
        np.testing.assert_array_equal(stale, np.full(self.N, poison, dtype))

    def test_a_sanitized_run_returns_no_device_block(self, recycler):
        """Replicated arrays on 4 GPUs: the device blocks (128 KiB) go
        through the recycler, the lane scratch (32 KiB) does not."""
        src = sanitizer_tests.STEP
        options = repro.CompileOptions(infer=False)
        n = 1 << 15
        args, run = run_source(src, sanitizer_tests.step_args(n), ngpus=4,
                               machine=NODE4, options=options, sanitize=True)
        np.testing.assert_array_equal(
            args["y"], (np.arange(n, dtype=np.float32) + 1) * 2)
        assert run.sanitizer.oracle.loops_run == 2
        assert recycler.takes >= 8 and recycler.bytes_held == 0
        run_source(src, sanitizer_tests.step_args(n), ngpus=4, machine=NODE4,
                   options=options)
        assert recycler.bytes_held >= 8 * 4 * n


@pytest.fixture
def recycled_blocks_everywhere(monkeypatch):
    """Every block poisoned at hand-out, and a free list already holding
    what a clean run of the programs under test gave back."""
    rec = poison_everything(monkeypatch)
    for ngpus in (1, 2):
        run_source(sanitizer_tests.STEP, sanitizer_tests.step_args(),
                   ngpus=ngpus,
                   options=sanitizer_tests.TestFaultInjection.NO_INFER)
    assert rec.bytes_held
    return rec


@pytest.mark.usefixtures("recycled_blocks_everywhere")
class TestFaultInjectionOnRecycledStorage(sanitizer_tests.TestFaultInjection):
    """The seeded bugs of ``tests/test_sanitizer.py``: same diagnoses."""


@pytest.mark.usefixtures("recycled_blocks_everywhere")
class TestStaleReloadSkipOnRecycledStorage(sanitizer_tests.TestStaleReloadSkip):
    """A corrupted replica behind a reload skip: same diagnosis."""


# -- (e) threads -----------------------------------------------------------------


def test_eight_threads_never_share_a_live_block(monkeypatch):
    """Seeded alloc / tag / verify / free through two ``DeviceMemory``
    objects (each behind its own lock: a device belongs to one run) and
    a private arena per thread, all on one small recycler so that hits,
    misses and evictions interleave."""
    cap = 1 << 20
    rec = StorageRecycler(cap)
    monkeypatch.setattr(vmem, "RECYCLER", rec)
    sizes = [vmem.RECYCLE_FLOOR // 4 * k for k in (1, 2, 3)]   # floats
    memories = [(DeviceMemory(g, 1 << 30), threading.Lock())
                for g in range(2)]
    live: dict[int, np.ndarray] = {}
    registry = threading.Lock()
    errors: list[str] = []

    def claim(key, block):
        with registry:
            for other in live.values():
                if np.shares_memory(block, other):
                    errors.append(f"{key}: handed a block somebody holds")
            live[key] = block
            if rec.bytes_held > cap:
                errors.append(f"{key}: {rec.bytes_held} bytes held")

    def disclaim(key):
        with registry:
            del live[key]

    def worker(t):
        rng = random.Random(t)
        arena = ScratchArena()
        for step in range(120):
            n = rng.choice(sizes)
            tag = float(1000 * t + step)
            if rng.random() < 0.5:
                memory, lock = memories[rng.randrange(2)]
                with lock:
                    buf = memory.alloc(f"t{t}", n, np.float32)
                block = buf.data
            else:
                buf = None
                block = arena.slot(rng.randrange(2), n, np.float32)
            key = 1000 * t + step
            claim(key, block)
            block.fill(tag)
            if rng.random() < 0.3:
                time.sleep(0.0005)
            if not (block == tag).all():
                errors.append(f"{key}: tag clobbered")
            disclaim(key)
            if buf is not None:
                with lock:
                    memory.free(buf)
            elif rng.random() < 0.2:
                arena.release()
        arena.release()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors[:5]
    assert rec.hits and rec.takes > rec.hits
    assert all(m.live_bytes == 0 for m, _ in memories)
    assert rec.bytes_held == sum(b.shape[0] for b in held_blocks(rec)) <= cap
