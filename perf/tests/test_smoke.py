"""Smoke test of the benchmark itself (kept under ``perf/``, outside
Tier-1's ``testpaths``)::

    python -m pytest perf/tests -q

Runs every workload in ``--quick`` mode, both passes, and checks that
each metric ``BENCHMARK.json`` names is printed with its unit and that
no op failed.  It does not look at the values: ``--quick`` runs are too
short to compare.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PERF / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(workload: str, trace: int) -> None:
    proc = run("--workload", workload, "--seed", "7", "--trace", str(trace),
               "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_modeled_clock() -> None:
    """The paper's clock and the bus bytes are exact per seed."""
    def facts() -> tuple[float, float]:
        proc = run("--workload", "cluster_comm", "--seed", "11",
                   "--trace", "1", "--quick")
        assert proc.returncode == 0, proc.stderr
        m = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        lanes = sum(m[f"modeled.{lane}_s"]["value"] for lane in
                    ("kernels", "cpu_gpu", "gpu_gpu", "net", "other"))
        assert lanes == pytest.approx(m["modeled.total_s"]["value"],
                                      rel=1e-12)
        kinds = sum(m[f"bus.bytes_{k}"]["value"]
                    for k in ("h2d", "d2h", "p2p", "net"))
        assert kinds == m["bus.bytes_total"]["value"]
        return m["modeled.total_s"]["value"], m["bus.bytes_total"]["value"]

    assert facts() == facts()


def test_compare_flags_a_regression(tmp_path: Path) -> None:
    def doc(p50: float) -> dict:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["op_ms_p50"]["value"] = p50
        run_ = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": metrics}
        return {"seed": 1, "seconds": 1.0, "repeat": 1,
                "workloads": {"stream": {"end_to_end": [run_],
                                         "per_layer": []}}}

    a, same, slow = (tmp_path / n for n in ("a.json", "same.json",
                                            "slow.json"))
    a.write_text(json.dumps(doc(100.0)))
    same.write_text(json.dumps(doc(104.0)))
    slow.write_text(json.dumps(doc(140.0)))
    ok = run("--compare", str(a), str(same))
    assert ok.returncode == 0, ok.stdout
    assert "worse (" not in ok.stdout
    bad = run("--compare", str(a), str(slow))
    assert bad.returncode == 1
    assert "worse (" in bad.stdout
