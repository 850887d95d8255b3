"""Persistent compiled-program registry (content-addressed, on disk).

The in-memory compile cache (:mod:`repro.translator.compiler`) only
helps within one process; a compile-and-serve deployment restarts, and
IPMACC-style persistent translation artifacts are what make the second
process cheap.  This module stores frozen :class:`CompiledProgram`
objects in a directory, keyed by ``(sha256(source), canonicalized
CompileOptions)`` -- the same canonical key the in-memory cache uses,
so every :class:`~repro.translator.compiler.CompileOptions` field
participates and two compiles differing in any single option never
share an entry.

Entry format (``<key>.prog``)::

    8 bytes   magic  b"RPROG2\\n\\0"
    32 bytes  translator fingerprint (:func:`translator_fingerprint`)
    8 bytes   payload length, big-endian
    32 bytes  SHA-256 of the payload
    N bytes   payload: pickled frozen program state

A truncated or corrupt entry (short file, checksum or unpickle failure)
is *never* an error: :meth:`ProgramRegistry.get` logs a warning, evicts
the file, and returns ``None`` so the caller falls back to
recompilation -- the store is a cache, not a database.  A *foreign*
entry -- another entry format, or one written by another translator --
takes the same path: the key hashes the source and the options, not the
code that translated them.

An entry holds what a run reads, as the paper's translator hands the
runtime kernel code, host code and array-configuration records (section
IV-B): options, source text and front end, host text, parameter table,
every plan's runtime record (kernel callables are re-exec'd from their
text) and the regions' plan lists in the ordinal order the host text
uses.  The tree, scopes, analyses and fusion report are re-derived from
the source on demand (:meth:`CompiledProgram.full`).
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import struct
import tempfile
import threading
from pathlib import Path

from .. import frontend, translator
from ..translator.compiler import (
    CompiledProgram,
    CompileOptions,
    ParallelRegion,
    canonical_options_key,
    compile_source_with_info,
)

log = logging.getLogger(__name__)

MAGIC = b"RPROG2\n\0"
_HEADER = struct.Struct(">8s32sQ32s")

#: Registry stat counter names (all start at zero).
STAT_NAMES = ("memory_hits", "disk_hits", "compiles", "stores",
              "corrupt_evictions", "foreign_evictions")


class RegistryError(RuntimeError):
    """Unrecoverable registry problem (unwritable directory, ...)."""


@functools.cache
def translator_fingerprint() -> bytes:
    """SHA-256 of the code that turns source into an entry: every module
    of :mod:`repro.frontend` and :mod:`repro.translator`, read once per
    process."""
    h = hashlib.sha256()
    for package in (frontend, translator):
        root = Path(package.__file__).parent
        for path in sorted(root.glob("*.py")):
            h.update(f"{package.__name__}.{path.stem}\0".encode())
            h.update(path.read_bytes())
    return h.digest()


def freeze_program(compiled: CompiledProgram) -> bytes:
    """Pickle what a run of ``compiled`` reads into a payload."""
    if not compiled.source:
        raise RegistryError(
            "cannot freeze a program without its source text: a thawed "
            "entry re-translates the source on demand, so build the tree "
            "with repro.frontend.parse or repro.frontend.fortran."
            "parse_fortran")
    state = {
        "options": compiled.options,
        "source": compiled.source,
        "frontend": compiled.frontend,
        "host_source": compiled.host_source,
        "params": compiled.params,
        "plans": compiled.plans,
        "regions": [region.plans for region in compiled.regions],
    }
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def thaw_program(payload: bytes) -> CompiledProgram:
    """Revive a frozen program; kernel callables are re-exec'd."""
    state = pickle.loads(payload)
    compiled = CompiledProgram(program=None, options=state["options"])
    compiled.source = state["source"]
    compiled.frontend = state["frontend"]
    compiled.host_source = state["host_source"]
    compiled.params = state["params"]
    compiled.plans = state["plans"]
    compiled.regions = [ParallelRegion(stmt=None, directive=None, plans=plans)
                        for plans in state["regions"]]
    return compiled


def registry_key(source: str, options: CompileOptions | None = None) -> str:
    """Content-addressed entry name: source hash + options hash."""
    src_h = hashlib.sha256(source.encode("utf-8")).hexdigest()[:32]
    opt_repr = repr(canonical_options_key(options)).encode("utf-8")
    opt_h = hashlib.sha256(opt_repr).hexdigest()[:16]
    return f"{src_h}-{opt_h}"


class ProgramRegistry:
    """Disk-backed compiled-program store with an in-process front.

    Lookup order: per-process thawed-program map, then the on-disk
    store, then a fresh translation (which is persisted).  All methods
    are thread-safe; disk writes are atomic (temp file + rename), so a
    crashed writer can at worst leave a temp file, never a half entry
    under a live name.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise RegistryError(
                f"cannot create registry directory {self.root}: {exc}"
            ) from exc
        self._lock = threading.Lock()
        self._memory: dict[str, CompiledProgram] = {}
        #: Single-flight guards: key -> event set when its loader is
        #: done.  Concurrent requests for one program wait for the
        #: first loader instead of translating N times.
        self._inflight: dict[str, threading.Event] = {}
        self.stats = {n: 0 for n in STAT_NAMES}

    # -- paths ---------------------------------------------------------------

    def path_for(self, source: str,
                 options: CompileOptions | None = None) -> Path:
        return self.root / f"{registry_key(source, options)}.prog"

    def entries(self) -> list[Path]:
        return sorted(self.root.glob("*.prog"))

    # -- store / load --------------------------------------------------------

    def put(self, source: str, options: CompileOptions | None,
            compiled: CompiledProgram) -> Path:
        """Persist one compiled program (atomic replace)."""
        payload = freeze_program(compiled)
        digest = hashlib.sha256(payload).digest()
        blob = _HEADER.pack(MAGIC, translator_fingerprint(), len(payload),
                            digest) + payload
        path = self.path_for(source, options)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats["stores"] += 1
            self._memory[registry_key(source, options)] = compiled
        return path

    def get(self, source: str,
            options: CompileOptions | None = None) -> CompiledProgram | None:
        """Load one entry from disk, or ``None`` (missing, corrupt or
        foreign).

        Corrupt entries -- truncated files, checksum mismatches,
        unpicklable payloads -- and foreign ones -- another magic, or
        another translator's fingerprint -- are logged, evicted and
        reported as a miss; the caller recompiles.
        """
        path = self.path_for(source, options)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._evict(path, f"unreadable ({exc})")
            return None
        if len(blob) < _HEADER.size:
            self._evict(path, f"truncated header ({len(blob)} bytes)")
            return None
        magic, fingerprint, length, digest = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            self._evict(path, f"entry format {magic!r}", "foreign")
            return None
        if fingerprint != translator_fingerprint():
            self._evict(path, "written by another translator", "foreign")
            return None
        payload = blob[_HEADER.size:]
        if len(payload) != length:
            self._evict(
                path, f"truncated payload ({len(payload)} of {length} bytes)")
            return None
        if hashlib.sha256(payload).digest() != digest:
            self._evict(path, "checksum mismatch")
            return None
        try:
            compiled = thaw_program(payload)
        except Exception as exc:  # noqa: BLE001 -- any unpickle failure
            self._evict(path, f"unpicklable payload ({exc!r})")
            return None
        return compiled

    def _evict(self, path: Path, why: str, kind: str = "corrupt") -> None:
        log.warning("evicting %s registry entry %s: %s", kind, path.name, why)
        with self._lock:
            self.stats[f"{kind}_evictions"] += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- the serve fast path -------------------------------------------------

    def load_or_compile(
            self, source: str, options: CompileOptions | None = None,
    ) -> tuple[CompiledProgram, str]:
        """The registry's whole point, as one call.

        Returns ``(program, outcome)`` with outcome one of
        ``"hit_memory"`` / ``"hit_disk"`` / ``"compiled"``.  The
        per-process map guarantees repeated requests for one program
        share a single object (and its exec'd kernels); the disk store
        makes process restarts cheap; a miss translates, persists, and
        primes both.
        """
        key = registry_key(source, options)
        while True:
            with self._lock:
                hit = self._memory.get(key)
                if hit is not None:
                    self.stats["memory_hits"] += 1
                    return hit, "hit_memory"
                guard = self._inflight.get(key)
                if guard is None:
                    self._inflight[key] = threading.Event()
                    break
            # Another thread is loading/compiling this key: wait for it
            # and re-check (single-flight).  If the loader failed, the
            # re-check finds neither a program nor a guard and this
            # thread becomes the loader, surfacing the same error.
            guard.wait()
        try:
            compiled = self.get(source, options)
            outcome = "hit_disk"
            if compiled is None:
                compiled, _ = compile_source_with_info(source, options)
                outcome = "compiled"
                self.put(source, options, compiled)
            with self._lock:
                self.stats["disk_hits" if outcome == "hit_disk"
                           else "compiles"] += 1
                self._memory.setdefault(key, compiled)
            return compiled, outcome
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.stats)


def default_registry_root() -> Path:
    """``REPRO_REGISTRY_DIR`` or ``.repro-registry`` in the CWD."""
    env = os.environ.get("REPRO_REGISTRY_DIR", "")
    return Path(env) if env else Path(".repro-registry")


__all__ = ["MAGIC", "ProgramRegistry", "RegistryError", "STAT_NAMES",
           "default_registry_root", "freeze_program", "registry_key",
           "thaw_program", "translator_fingerprint"]
