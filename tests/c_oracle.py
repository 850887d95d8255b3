"""gcc as the oracle the front end does not share.

Every other oracle in ``tests/`` (``interp_oracle``, ``host_oracle``,
``dirty_oracle``) reads the same tree and the same scalar tables as the
translator, so a C-semantics mistake in the translator is invisible to
them.  This module compiles each bundled C source with gcc -- the
OpenACC pragmas ignored, so it is the sequential C program whose result
the single-GPU run must equal -- behind a generated ``main`` that reads
the ``tiny`` inputs, and records what the C program leaves in the
arrays a ``copy`` / ``copyout`` / ``update host`` clause writes back
(and in arrays no clause names, which only the host touches).  A
``create`` or ``copyin`` array is not compared: OpenACC leaves its host
image alone, where the sequential program writes it.

Besides the apps, :data:`PROBES` and :data:`INT_PROBES` hold one
program per divergence class of C's arithmetic -- over a ``float``
array, and over an ``int`` one stored into ``long`` arrays: each
computes its expression in a kernel (into ``k``) and in a host loop
outside any parallel construct (into ``h``).

The gcc outputs are kept as SHA-256 digests in
``tests/c_oracle_digests.json``, so the tests need no gcc;
``PYTHONPATH=src:. python tests/c_oracle.py --write`` rebuilds them
(``gcc -O0 -std=c99 -ffp-contract=off -lm``) and ``--check`` compares a
rebuild with them, leaving out :data:`LIBC_DEPENDENT`.  The checked-in
digests were made with gcc 12.2.0 (Debian 12.2.0-14+deb12u1) and glibc
2.36 on x86-64.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.apps import ALL_APPS, EXTRA_APPS
from repro.frontend import cast as C
from repro.frontend import parse
from repro.frontend.directives import AccData, AccParallel, AccUpdate

GCC_FLAGS = ("-O0", "-std=c99", "-ffp-contract=off")
DIGESTS_PATH = Path(__file__).with_name("c_oracle_digests.json")
#: Clause kinds whose array the host sees the device's values of.
WRITTEN_BACK = ("copy", "copyout")

#: C scalar types of entry parameters -> NumPy dtype.
_DTYPES = {"int": np.int32, "float": np.float32, "double": np.float64,
           "long": np.int64}


def _probe(expr: str, types: str = "float") -> str:
    """A probe program: ``expr`` over ``a[i]``, ``s`` and ``i`` in a
    kernel (into ``k``) and in a host loop (into ``h``); ``types``
    ``"int"`` makes ``a`` an ``int`` array and ``k`` / ``h`` ``long``
    ones (no ``s``)."""
    params = "int n, float s, float *a, float *k, float *h" \
        if types == "float" else "int n, int *a, long *k, long *h"
    return f"""
void probe({params}) {{
  #pragma acc data copyin(a[0:n]) copyout(k[0:n])
  {{
    #pragma acc parallel loop
    for (int i = 0; i < n; i++) {{
      k[i] = {expr};
    }}
  }}
  for (int i = 0; i < n; i++) {{
    h[i] = {expr};
  }}
}}
"""


def _probe_args(n: int = 1000, seed: int = 21) -> dict[str, Any]:
    rng = np.random.default_rng(seed)
    return {"n": n, "s": 0.8,
            "a": rng.uniform(-100.0, 100.0, n).astype(np.float32),
            "k": np.zeros(n, np.float32), "h": np.zeros(n, np.float32)}


def _int_probe_args(n: int = 1000, seed: int = 21) -> dict[str, Any]:
    """``a`` over the whole ``int`` range, led by values whose doubled
    product needs 64 bits (``2000000000``, ``1999999998``, a multiple
    of 3) or an ``unsigned`` wrap (``-1``)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-2 ** 31, 2 ** 31, n, dtype=np.int64).astype(np.int32)
    a[:4] = (2_000_000_000, 1_999_999_998, -1, -2_000_000_001)
    return {"n": n, "a": a, "k": np.zeros(n, np.int64),
            "h": np.zeros(n, np.int64)}


#: Divergence class -> the expression its probe computes.
PROBES = {
    "float_param": "(1.0f - s) * a[i] + s * 0.5f * a[i]",
    "double_literal": "a[i] * 0.1",
    "int_operand": "a[i] + (i + 16777217)",
    "libm": "expf(a[i] * 0.01f)",
}
#: The same over the integer template (``int *a``, ``long *k, *h``).
INT_PROBES = {
    "long_mod": "(a[i] * 2L) % 7",
    "long_ternary": "a[i] > 0 ? a[i] * 2L : 0",
    "long_logical": "!(a[i] % 3) && a[i] * 2L > 3000000000L",
    "unsigned": "a[i] * 2u",
}


#: Cases whose gcc bytes are the C library's: glibc picks its ``expf``
#: (FMA or SSE2 on x86-64) at run time, and versions differ.
LIBC_DEPENDENT = ("probe_libm",)


@dataclass(frozen=True)
class Case:
    """One C program and its inputs."""

    name: str
    source: str
    entry: str
    make_args: Callable[[], dict[str, Any]]


def cases() -> dict[str, Case]:
    """Every bundled C app at its ``tiny`` size, then the probes."""
    out = {name: Case(name, spec.source, spec.entry,
                      lambda spec=spec: spec.args_for("tiny"))
           for name, spec in sorted({**ALL_APPS, **EXTRA_APPS}.items())}
    for cls, expr in PROBES.items():
        name = f"probe_{cls}"
        out[name] = Case(name, _probe(expr), "probe", _probe_args)
    for cls, expr in INT_PROBES.items():
        name = f"probe_{cls}"
        out[name] = Case(name, _probe(expr, "int"), "probe", _int_probe_args)
    return out


def compared_arrays(case: Case) -> list[str]:
    """The entry's array parameters whose host image the C program and
    the OpenACC run must agree on, in parameter order."""
    tree = parse(case.source)
    named: dict[str, set[str]] = {}
    for func in tree.functions:
        for st in C.walk(func.body):
            for d in st.directives:
                if isinstance(d, (AccData, AccParallel)):
                    for cl in d.clauses:
                        for sec in cl.sections:
                            named.setdefault(sec.name, set()).add(cl.kind)
                elif isinstance(d, AccUpdate):
                    for sec in d.host:
                        named.setdefault(sec.name, set()).add("update host")
    params = tree.function(case.entry).params
    return [p.name for p in params if p.ctype.is_arraylike
            and (p.name not in named
                 or named[p.name] & {*WRITTEN_BACK, "update host"})]


def c_main(case: Case) -> str:
    """The source plus a ``main`` that reads every parameter from
    ``argv[1]`` (arrays as an int64 length and the elements) into
    ``p_<name>``, calls the entry, and writes the compared arrays to
    ``argv[2]``."""
    params = parse(case.source).function(case.entry).params
    lines = ["", "int main(int argc, char **argv) {",
             '  FILE *in = fopen(argv[1], "rb");', "  long long len;"]
    for p in params:
        base = p.ctype.base
        if p.ctype.is_arraylike:
            lines += ["  if (fread(&len, 8, 1, in) != 1) return 2;",
                      f"  long long len_{p.name} = len;",
                      f"  {base} *p_{p.name} = malloc(sizeof({base}) * "
                      f"(len + 1));",
                      f"  if (fread(p_{p.name}, sizeof({base}), len, in) "
                      "!= (size_t)len) return 2;"]
        else:
            lines += [f"  {base} p_{p.name};",
                      f"  if (fread(&p_{p.name}, sizeof({base}), 1, in) != 1)"
                      " return 2;"]
    lines += ["  fclose(in);",
              f"  {case.entry}({', '.join('p_' + p.name for p in params)});",
              '  FILE *out = fopen(argv[2], "wb");']
    base = {p.name: p.ctype.base for p in params}
    for name in compared_arrays(case):
        lines.append(f"  fwrite(p_{name}, sizeof({base[name]}), len_{name}, "
                     "out);")
    lines += ["  fclose(out);", "  return 0;", "}", ""]
    head = "#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
    return head + case.source + "\n".join(lines)


def _c_value(p: C.Param, value: Any) -> np.ndarray:
    """A parameter as the C call receives it."""
    dt = _DTYPES[p.ctype.base]
    return np.ascontiguousarray(np.asarray(value), dtype=dt)


def gcc_outputs(case: Case, workdir: Path) -> dict[str, bytes]:
    """Build and run ``case`` with gcc; the bytes of each compared
    array."""
    params = parse(case.source).function(case.entry).params
    args = case.make_args()
    src, exe = workdir / f"{case.name}.c", workdir / case.name
    src.write_text(c_main(case))
    subprocess.run(["gcc", *GCC_FLAGS, "-w", "-o", str(exe), str(src),
                    "-lm"], check=True)
    blob = bytearray()
    for p in params:
        v = _c_value(p, args[p.name])
        if p.ctype.is_arraylike:
            blob += np.int64(v.size).tobytes()
        blob += v.tobytes()
    inp, outp = workdir / f"{case.name}.in", workdir / f"{case.name}.out"
    inp.write_bytes(bytes(blob))
    subprocess.run([str(exe), str(inp), str(outp)], check=True)
    data, out = outp.read_bytes(), {}
    for name in compared_arrays(case):
        p = next(p for p in params if p.name == name)
        size = _c_value(p, args[name]).nbytes
        out[name], data = data[:size], data[size:]
    assert not data
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gcc_digests() -> dict[str, dict[str, str]]:
    """case -> array -> SHA-256 of gcc's bytes."""
    if shutil.which("gcc") is None:
        raise RuntimeError("gcc is not installed")
    with tempfile.TemporaryDirectory() as tmp:
        return {name: {a: digest(b)
                       for a, b in gcc_outputs(case, Path(tmp)).items()}
                for name, case in cases().items()}


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def main(argv: list[str]) -> int:
    table = gcc_digests()
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    if "--check" in argv:
        pinned = load_digests()
        moved = sorted(name for name in {*table, *pinned}
                       if name not in LIBC_DEPENDENT
                       and table.get(name) != pinned.get(name))
        for name in moved:
            print(f"{name}: gcc's outputs differ from {DIGESTS_PATH.name}")
        return 1 if moved else 0
    if "--write" in argv:
        DIGESTS_PATH.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
