"""Frozen output digests of the gather kernels.

One sha256 per program whose kernels gather, scatter or stride --
``md``, ``kmeans``, ``bfs``, ``spmv``, ``heat2d``, ``shift_scale``,
``stencil_probes`` and the Fortran ``md`` -- on 1, 2 and 4 GPUs of a
four-GPU node, over the ``test`` workload: every array argument's
``tobytes()`` after the run, every launch's ``dyn_counts``,
``repr(run.elapsed)`` and the bus's bytes per kind.  The digests were
generated at ``701b56d``, when these kernels were the mask lowering's
(``ks.ld`` over ``np.clip``, ``ks.bcv`` locals, ``ks.merge``), with
:func:`run_digest` as it stands (``python tests/test_gather_identity.py``
prints the table).

A lowering that runs the same ufuncs on the same operands gives the same
bits, not merely the interpreter's to ``rtol``: a digest that moves
means a float result, a trip count, a modeled second or a transferred
byte did.

Nine more rows (:data:`KERNELS`) pin the corners that the CSR-flattened
axis and the lane-varying loop bounds reach: locals declared and
predicated on the CSR axis, constant-trip loops inside a CSR loop, outer
locals and the loop variable read there, counters, ``reductiontoarray``
and scalar reductions from the flattened lanes, a CSR loop under an
outer data-dependent ``if``, all-empty rows and triangular loop bounds.
Their digests were generated at ``c604189``, when all of these still
ran on the mask lowering (``ks.bcv`` / ``ks.merge`` / ``ks.msel`` /
``ks.lanes_of``).
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.apps import ALL_APPS, EXTRA_APPS
from repro.bench import multinode
from repro.bench.machines import hypothetical_node
from tests.test_fortran_apps import MD_FORTRAN

NODE4 = hypothetical_node(4)
APPS = {**ALL_APPS, **EXTRA_APPS}

#: ``(source, arguments the entry ``k`` takes)`` of the CSR-axis rows.
KERNELS = {
    # A local declared on the CSR axis, assigned under if/else there.
    "csr_local_if": ("""
void k(int n, int nnz, int *row, int *col, float *val, float *x, float *y) {
  #pragma acc data copyin(row[0:n+1], col[0:nnz], val[0:nnz], x[0:n]) copy(y[0:n])
  {
    #pragma acc parallel
    {
      #pragma acc localaccess row[stride(1, 0, 1)] y[stride(1)] \\
                              col[bounds(row[i], row[i + 1] - 1)] \\
                              val[bounds(row[i], row[i + 1] - 1)]
      #pragma acc loop gang
      for (int i = 0; i < n; i++) {
        float sum = 0.0f;
        for (int e = row[i]; e < row[i + 1]; e++) {
          float t = val[e];
          int c = col[e];
          if (x[c] > 0.25f) { t = t * x[c] + 0.1f; c = c + 1; }
          else { t = t - 1.5f; }
          sum += t * (float)c;
        }
        y[i] = sum;
      }
    }
  }
}
""", ["n", "nnz", "row", "col", "val", "x", "y"]),
    # Constant-trip loops inside a CSR loop, one under a CSR-axis mask.
    "csr_const_loop": ("""
void k(int n, int m, int *row, int *col, float *val, float *w, float *y) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float sum = 0.0f;
    for (int e = row[i]; e < row[i + 1]; e++) {
      float acc = 0.0f;
      for (int q = 0; q < m; q++) { acc = acc + w[q] * val[e]; }
      if (col[e] > i) {
        for (int q = 1; q < m; q++) { acc = acc - w[q - 1] * 0.3f; }
      }
      sum += acc;
    }
    y[i] = sum;
  }
}
""", ["n", "m", "row", "col", "val", "w", "y"]),
    # Outer locals and the loop variable read on the CSR axis.
    "csr_outer_local": ("""
void k(int n, int *row, int *col, float *val, float *x, float *y) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float s = x[i] * 2.0f;
    int b = i + 3;
    float acc = 0.0f;
    for (int e = row[i]; e < row[i + 1]; e++) {
      acc += val[e] * s + (float)(b - i) * x[col[e]];
      acc += s;
    }
    y[i] = acc + s;
  }
}
""", ["n", "row", "col", "val", "x", "y"]),
    # An int counter under a CSR-axis `!=`.
    "csr_int_counter": ("""
void k(int n, int *row, int *col, int *deg) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    int cnt = 0;
    for (int e = row[i]; e < row[i + 1]; e++) {
      if (col[e] != i) { cnt += 1; }
    }
    deg[i] = cnt;
  }
}
""", ["n", "row", "col", "deg"]),
    # reductiontoarray scatters from the flattened lanes.
    "csr_reduction_to_array": ("""
void k(int n, int nb, int *row, int *col, float *val, float *hist, int *deg) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    for (int e = row[i]; e < row[i + 1]; e++) {
      #pragma acc reductiontoarray(+: hist[0:nb])
      hist[col[e] % nb] += val[e];
      #pragma acc reductiontoarray(+: deg[0:nb])
      deg[col[e] % nb] += 1;
    }
  }
}
""", ["n", "nb", "row", "col", "val", "hist", "deg"]),
    # A CSR loop under an outer data-dependent `if`.
    "csr_under_if": ("""
void k(int n, int *row, int *col, float *val, float *x, float *y, int *deg) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float sum = 0.0f;
    if (x[i] > 0.0f) {
      for (int e = row[i]; e < row[i + 1]; e++) {
        sum += val[e];
        deg[col[e]] = 1;
      }
    } else {
      sum = -1.0f;
    }
    y[i] = sum;
  }
}
""", ["n", "row", "col", "val", "x", "y", "deg"]),
    # Scalar reductions inside a CSR loop.
    "csr_scalar_reduction": ("""
void k(int n, int *row, int *col, float *val, float *x, float *y) {
  float total = 0.0f;
  float top = -1.0e30f;
  int hits = 0;
  #pragma acc parallel loop reduction(+:total) reduction(max:top) reduction(+:hits)
  for (int i = 0; i < n; i++) {
    for (int e = row[i]; e < row[i + 1]; e++) {
      total += val[e] * x[col[e]];
      top = fmax(top, val[e]);
      if (val[e] > 0.5f) { hits += 1; }
    }
  }
  y[0] = total;
  y[1] = top;
  y[2] = (float)hits;
}
""", ["n", "row", "col", "val", "x", "y"]),
    # Every row empty: the flattened axis has no lanes.
    "csr_empty_rows": ("""
void k(int n, int nb, int *row, int *col, float *val, float *x, float *y,
       float *hist) {
  float total = 0.0f;
  #pragma acc parallel loop reduction(+:total)
  for (int i = 0; i < n; i++) {
    float sum = x[i];
    for (int e = row[i]; e < row[i + 1]; e++) {
      float t = val[e] * sum;
      if (t > 0.0f) { t = 0.0f; }
      sum += t;
      total += t;
      #pragma acc reductiontoarray(+: hist[0:nb])
      hist[col[e] % nb] += t;
    }
    y[i] = sum;
  }
  hist[0] = hist[0] + total;
}
""", ["n", "nb", "row", "col", "val", "x", "y", "hist"]),
    # Triangular loop bounds on the plain axis, one under a mask.
    "triangular": ("""
void k(int n, float *x, float *y) {
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    float s = 0.0f;
    for (int j = i; j < n; j++) { s = s + x[j] * 0.5f; }
    if (x[i] > 0.0f) {
      for (int j = 0; j < i; j++) { s = s - x[j]; }
    }
    y[i] = s;
  }
}
""", ["n", "x", "y"]),
}


def csr_arguments(name):
    """Every argument a :data:`KERNELS` row may take: a CSR matrix of
    300 rows (none of them holding an entry for ``csr_empty_rows``)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n, nb = 300, 7
    counts = np.zeros(n, np.int64) if name == "csr_empty_rows" \
        else rng.poisson(5, n)
    row = np.zeros(n + 1, np.int32)
    np.cumsum(counts, out=row[1:])
    nnz = max(int(row[-1]), 1)
    return {"n": n, "nnz": int(row[-1]), "nb": nb, "m": 4, "row": row,
            "col": rng.integers(0, n, nnz).astype(np.int32),
            "val": rng.standard_normal(nnz).astype(np.float32),
            "x": rng.standard_normal(n).astype(np.float32),
            "w": rng.standard_normal(4).astype(np.float32),
            "y": np.zeros(n, np.float32),
            "deg": np.zeros(n, np.int32),
            "hist": np.zeros(nb, np.float32)}


def case(name):
    """``(program, entry, fresh arguments)`` of one digest row."""
    if name in KERNELS:
        source, params = KERNELS[name]
        args = csr_arguments(name)
        return (repro.compile(source),
                "k", {p: args[p] for p in params})
    if name == "stencil_probes":
        return (repro.compile(multinode.STENCIL_PROBES_SOURCE),
                multinode.ENTRY,
                multinode.probe_args(n=2048, nprobes=256, steps=3))
    if name == "md_fortran":
        return (repro.compile_fortran(MD_FORTRAN), "md",
                APPS["md"].args_for("test"))
    spec = APPS[name]
    return repro.compile(spec.source), spec.entry, spec.args_for("test")


GOLDEN = {
    ("bfs", 1):
        "1995555d67a1b016dc37a1fa3aa9270d48b407a5596669004662a728485ce154",
    ("bfs", 2):
        "a62cd893de95e638a96718b72f65863f6195664384f8950a2d98dc4149d55dd6",
    ("bfs", 4):
        "04c9059154df5e46699106018aedab935a0ee731bf809354f48d40b6138eaa76",
    ("heat2d", 1):
        "e131cd3e98b8d32b160c89dc8f020c4f58be59d6fb5f59cb1bbde705b0261c33",
    ("heat2d", 2):
        "6bbe2ffe43ed15a2aa75341a18d97e65eaafa97b6d5f5a0ea8254b34720b646d",
    ("heat2d", 4):
        "cea71f05c747c13d7c6b876d029262e3384f8b7a9d8ac33007dcc683c3a9e475",
    ("kmeans", 1):
        "b2f253d88f00276acd5ab2525e608b6552bd0ec95ab9cb4a92474be8d71164bf",
    ("kmeans", 2):
        "e5d1984c8734a6c1452239ae641908c4189f1054a8eabf3f736b2171821557d2",
    ("kmeans", 4):
        "ecade93a62ec3b368d9939e4118b8559e16c462ddf3f5cae1c64350ae5d8df43",
    ("md", 1):
        "d6cf72d8e3dc4f93200a154d27c35719cfd91b37daa237326c90cbfccc6c6cf7",
    ("md", 2):
        "2839fe8f47e0869152e40ba0ce53f7735ca13768ffee519768d7cb5f13097cb7",
    ("md", 4):
        "4f233c92b1b3c92d5f03189e2f5aa2f44c9e97f347a7260fe209c99388a7114c",
    ("md_fortran", 1):
        "d6cf72d8e3dc4f93200a154d27c35719cfd91b37daa237326c90cbfccc6c6cf7",
    ("md_fortran", 2):
        "2839fe8f47e0869152e40ba0ce53f7735ca13768ffee519768d7cb5f13097cb7",
    ("md_fortran", 4):
        "4f233c92b1b3c92d5f03189e2f5aa2f44c9e97f347a7260fe209c99388a7114c",
    ("shift_scale", 1):
        "49593dbe7406b14c2d0db1400e046c69c5c2a9698374644974b3110134cb10f5",
    ("shift_scale", 2):
        "59ae42f7b55a5e29ea625562fba96b4e27fa6ebeff252834a5f2e184403cb5e7",
    ("shift_scale", 4):
        "4cd2b51531d01470926ad06805bce01461c652782b50758adb1b5671fc1fa005",
    ("spmv", 1):
        "5043fc12cf163298026b9abb2fdf2f3dcb9193a94b2a14108c06ead66a91a8ef",
    ("spmv", 2):
        "7a1ea743bb75ff658c2fa047d3ea0b9adea5ce8aa5de8e6d01e8b06352cea0c5",
    ("spmv", 4):
        "9b94e102e2af7d6e332323e24bf303653ff9ebdc16a3dd7394059faa868c41ee",
    ("stencil_probes", 1):
        "a1e24b08795280f326fd89f906587725841ba5eb389c9bcd13ff8e3329a960ae",
    ("stencil_probes", 2):
        "afd29f39fafe880f6a9986a4edd3ae81d7271bbdf0269f3beef731f5edbe3f1a",
    ("stencil_probes", 4):
        "38b72fe18f4ea6f0cf3ffa2012346da115ea33632ccdbbd55540c1cd9990b460",
    ("csr_local_if", 1):
        "d7b4dddbd867d52f9e37a6a129b6ba1a645253a5786304350149acd996c7d428",
    ("csr_local_if", 2):
        "cdb6b1314b7df7f17724521654e782ea3a39f7199f6e50f54329ec700fd261b7",
    ("csr_local_if", 4):
        "7b0a1011e67f87fd831fd4bed233990a67ad21cf48326002e5380546add56f75",
    ("csr_const_loop", 1):
        "0643280e01e148e9ad47ced024cdd3d132a8b3ac803b6476089659d62e1e9578",
    ("csr_const_loop", 2):
        "dc470482a73a8d6a2495ea6c1287d3aef26e27e77869f2ccd460dc37cdf9b37d",
    ("csr_const_loop", 4):
        "2ea59ea1607e71bacce3453831e713de05994bd2d90165b35de07b5227998bf4",
    ("csr_outer_local", 1):
        "768bd4001b154e651001c6b82f108393743c8fd11b2783aa3492a40a44f3a0ed",
    ("csr_outer_local", 2):
        "5c92b9557ed47eeac2ff3400bc7ef3c9bb254de9c1f854c2d517658e77c569f8",
    ("csr_outer_local", 4):
        "584dfb8a0d46e988a26cb145da522c1b805512ec7e65f58cade74a8f2475c5a9",
    ("csr_int_counter", 1):
        "7af43d732dd56333a9cdacf4d0954a62f998d2cf999f2658e5dc9f4fc7c229ad",
    ("csr_int_counter", 2):
        "110f6e3b36f4d6536c429d5702d79c325cf42449847f3dd1f0a3fbd1a2d3df64",
    ("csr_int_counter", 4):
        "713c39b0705c374309d07b84979ff669ef64fe0a00fc0409951aed2dc4a9c1f4",
    ("csr_reduction_to_array", 1):
        "0876d392c4111ace630b896a5f996498f5d06877571a432d249e0d30ca5e9b4d",
    ("csr_reduction_to_array", 2):
        "b8a649877b75ab3b6ad88f8d7705a22cc4d704740da63c27788a99e36c06d1a9",
    ("csr_reduction_to_array", 4):
        "3957cd44e67a6f6dff75e24cf308e210dead8bb0bbf6e6d7f71fd29069e66683",
    ("csr_under_if", 1):
        "2a9abb6eefd0ff2eeb30f55dff295b57969f976f4269724dedee0b176d65dc8b",
    ("csr_under_if", 2):
        "58a7536e3fa6615970d36652a9deb3c05b82f4d0e4350cd3aed6034d3faa7094",
    ("csr_under_if", 4):
        "7aa46a7896d4166933e3dc132562ffdd67029c236e3bf58abcb3354d0d6c250c",
    ("csr_scalar_reduction", 1):
        "9e461535f8389bfc2e464aa25812d548d9d72afa89df87de511f4a948c41fd8a",
    ("csr_scalar_reduction", 2):
        "cdf3d8de0ff276f07dac2995b6c6f04a2b519bf4f59a7eb8ebc32d827b0c9bf8",
    ("csr_scalar_reduction", 4):
        "8c036c4bcd779558c7c4276190558b199f4824f2825a298256c86760b2e9556a",
    ("csr_empty_rows", 1):
        "29dce7c8c63fcdda506547dd7d472f46d54ae9a386a50f08386e4ff05241c072",
    ("csr_empty_rows", 2):
        "1fa01e6ab5a7b1c7f70c737a17a3b0d782499dc336b5db85f51fba42582bf3d5",
    ("csr_empty_rows", 4):
        "6a632aedd99d6fe3a713ff92d7869cb3724df2a20a3f78a124b8af56569202d4",
    ("triangular", 1):
        "4489967263f3cca1c7a7d4cad4f28099374e772ef926562c16a361114ec881a6",
    ("triangular", 2):
        "6894c894c740062fe4f08b0931a8070c26e35863bbf4499e62c0253229393982",
    ("triangular", 4):
        "ca321b9555a37672728026add71ee82dd797780f1adced2f41476bb360b4148e",
}

NAMES = sorted(["bfs", "heat2d", "kmeans", "md", "md_fortran",
                "shift_scale", "spmv", "stencil_probes", *KERNELS])
NGPUS = [1, 2, 4]


def run_digest(name: str, ngpus: int) -> str:
    return digest_of(*case(name), ngpus)


def digest_of(prog, entry: str, args: dict, ngpus: int) -> str:
    run = prog.run(entry, args, machine=NODE4, ngpus=ngpus)
    h = hashlib.sha256()
    for key in sorted(args):
        if isinstance(args[key], np.ndarray):
            arr = np.ascontiguousarray(args[key])
            h.update(f"{key} {arr.dtype} {arr.shape}\n".encode())
            h.update(arr.tobytes())
    for stats in run.loop_stats:
        h.update(repr([sorted(c.items()) for c in stats.dyn_counts]).encode())
    h.update(repr(run.elapsed).encode())
    bus = run.platform.bus
    h.update(repr([bus.bytes_moved(kind)
                   for kind in ("h2d", "d2h", "p2p", "net")]).encode())
    h.update(repr(bus.bytes_moved()).encode())
    return h.hexdigest()


def test_golden_lists_every_case():
    assert sorted(GOLDEN) == [(n, g) for n in NAMES for g in NGPUS]


@pytest.mark.parametrize("ngpus", NGPUS)
@pytest.mark.parametrize("name", NAMES)
def test_output_digest_matches_golden(name, ngpus):
    assert run_digest(name, ngpus) == GOLDEN[name, ngpus]


if __name__ == "__main__":
    for name in NAMES:
        for ngpus in NGPUS:
            print(f'    ("{name}", {ngpus}):\n'
                  f'        "{run_digest(name, ngpus)}",')
