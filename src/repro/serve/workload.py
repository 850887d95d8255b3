"""Workload files: a replayable description of many run requests.

``python -m repro.serve`` replays a JSON workload against a
:class:`~repro.serve.service.ProgramService` and prints the queueing
summary.  The schema keeps workloads small by referencing the bundled
apps (:mod:`repro.apps`) instead of embedding source text::

    {
      "fleet": {"gpus": 16, "gpus_per_hub": 4},   // or {"machine": "desktop"}
      "policy": "fifo",                            // or "fair"
      "requests": [
        {"app": "stencil", "workload": "tiny", "ngpus": 2,
         "tenant": "team-a", "count": 3, "options": {"fuse": true},
         "run": {"overlap": true}}
      ]
    }

``count`` clones a request line N times (each clone gets fresh input
arrays -- app input generators are deterministic, so replays are too).
``run`` holds :class:`~repro.runtime.config.RunConfig` fields, checked
when the workload loads.  Unknown keys and bad values are rejected: a
workload file is an interface, typos should fail loudly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..apps import ALL_APPS, EXTRA_APPS
from ..bench.machines import hypothetical_node
from ..runtime.config import RunConfig
from ..translator.compiler import CompileOptions
from ..vcuda.specs import MACHINES, MachineSpec
from .registry import ProgramRegistry
from .service import ProgramService, RequestRecord, RunRequest, ServiceReport

APPS = {**ALL_APPS, **EXTRA_APPS}

_FLEET_KEYS = {"machine", "gpus", "gpus_per_hub"}
_REQUEST_KEYS = {"app", "workload", "ngpus", "tenant", "count", "options",
                 "run", "bytes_per_gpu", "label"}
_TOP_KEYS = {"fleet", "policy", "max_queue", "requests"}


class WorkloadError(ValueError):
    pass


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise WorkloadError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def fleet_from_spec(spec: dict[str, Any] | None) -> MachineSpec:
    """Build the shared fleet a workload runs on (default: 16 GPUs)."""
    if spec is None:
        return hypothetical_node(16, gpus_per_hub=4)
    _check_keys(spec, _FLEET_KEYS, "fleet")
    if "machine" in spec:
        try:
            return MACHINES[spec["machine"]]
        except KeyError:
            raise WorkloadError(
                f"unknown machine {spec['machine']!r}; "
                f"known: {sorted(MACHINES)}") from None
    return hypothetical_node(int(spec.get("gpus", 16)),
                             gpus_per_hub=int(spec.get("gpus_per_hub", 4)))


def requests_from_spec(spec: list[dict[str, Any]]) -> list[RunRequest]:
    requests: list[RunRequest] = []
    for i, line in enumerate(spec):
        _check_keys(line, _REQUEST_KEYS, f"requests[{i}]")
        try:
            app = APPS[line["app"]]
        except KeyError:
            raise WorkloadError(
                f"requests[{i}]: unknown app {line['app']!r}; "
                f"known: {sorted(APPS)}") from None
        workload = line.get("workload", "tiny")
        if workload not in app.workloads:
            raise WorkloadError(
                f"requests[{i}]: app {app.name!r} has no workload "
                f"{workload!r}; known: {sorted(app.workloads)}")
        options = None
        if line.get("options"):
            try:
                options = CompileOptions(**line["options"])
            except TypeError as exc:
                raise WorkloadError(
                    f"requests[{i}]: bad options: {exc}") from None
        try:
            config = RunConfig(**line.get("run", {}))
        except (TypeError, ValueError) as exc:
            raise WorkloadError(
                f"requests[{i}]: bad run flags: {exc}") from None
        for clone in range(int(line.get("count", 1))):
            label = line.get("label")
            if label is not None and int(line.get("count", 1)) > 1:
                label = f"{label}-{clone}"
            requests.append(RunRequest(
                source=app.source,
                entry=app.entry,
                args=app.args_for(workload),
                options=options,
                ngpus=int(line.get("ngpus", 1)),
                tenant=str(line.get("tenant", "default")),
                bytes_per_gpu=line.get("bytes_per_gpu"),
                config=config,
                label=label,
            ))
    return requests


def load_workload(path: str | Path) -> dict[str, Any]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise WorkloadError(f"{path}: workload must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "workload")
    if not isinstance(doc.get("requests"), list) or not doc["requests"]:
        raise WorkloadError(f"{path}: workload needs a 'requests' list")
    return doc


def run_workload(
        doc: dict[str, Any],
        registry: ProgramRegistry | None = None,
        policy: str | None = None,
) -> tuple[ProgramService, list[RequestRecord], ServiceReport]:
    """Replay one loaded workload; returns (service, tickets, report)."""
    fleet = fleet_from_spec(doc.get("fleet"))
    service = ProgramService(
        fleet, registry=registry,
        policy=policy or doc.get("policy", "fifo"),
        max_queue=doc.get("max_queue"))
    records = [service.submit(r) for r in requests_from_spec(doc["requests"])]
    service.drain()
    return service, records, service.report()


__all__ = ["APPS", "WorkloadError", "fleet_from_spec", "load_workload",
           "requests_from_spec", "run_workload"]
