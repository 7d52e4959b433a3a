"""Workload ``tablef``: the orchestrator and federated layers.

One Dirichlet tableF cell (16 clients, 2 rounds, the ``fed_unlearn`` arm,
3 classes; the federated microbench's cell shape at a quarter of its
clients and data) runs through ``FederatedOrchestrator`` twice: serial
(``workers=0``), then pooled (``workers=nproc``).  Set-up materialises the
cell (datasets, Dirichlet partition, client population) with the
program's ``build_cell``, fifteen times.

Task outcomes come from the orchestrator's run ledger: a task whose last
event is ``failed`` or ``skipped`` is a failed operation, never a crash of
the benchmark.  When both halves complete, the pooled final global model
must equal the serial one bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import traceback
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from common import OUT, Named, Outcome, Timing, nproc

SETUP_REPEATS = 15
CELL = dict(
    client_counts=(16,),
    malicious_fractions=(0.125,),
    rounds=2,
    partition="dirichlet",
    n_train=160,
    n_test=60,
    n_reservoir=90,
    num_classes=3,
    defenses=("fed_unlearn",),
    spc=10,
)
# The event that last touched a task decides its status.
_FINAL = {"finished": "done", "failed": "failed", "skipped": "skipped",
          "queued": "queued", "retried": "queued", "started": "running"}


def _spec(seed: int):
    from repro.federated import federated_spec

    return federated_spec("quick", seed=seed, **CELL)


def setup(seed: int, outcome: Outcome, args) -> Dict:
    from repro.federated.tasks import build_cell

    spec = _spec(seed)
    (scenario,) = spec.scenarios()
    times: List[float] = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = perf_counter()
        build_cell(scenario)
        times.append(perf_counter() - start)
    outcome.info["tablef"] = {**CELL, "seed": seed, "pooled_workers": nproc()}
    return {"setup_times": times, "spec": spec, "root": OUT / "tablef" / f"run-{time.time_ns()}"}


def _ledger(path: str) -> List[Dict]:
    events = []
    with open(path) as handle:
        for line in handle:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # a torn final line
    return events


def _run(spec, workers: int, run_dir, outcome: Outcome) -> Dict:
    from repro.federated import FederatedOrchestrator
    from repro.federated.scheduler import build_federated_dag, state_key
    from repro.orchestrator.artifacts import ArtifactStore
    from repro.orchestrator.orchestrator import OrchestratorConfig

    tasks = len(build_federated_dag(spec))
    outcome.attempted += tasks
    orchestrator = FederatedOrchestrator(
        OrchestratorConfig(workers=workers, run_dir=str(run_dir), verbose=False)
    )
    start = perf_counter()
    try:
        result = orchestrator.run(spec)
    except Exception:  # noqa: BLE001 — a crashed run fails all its tasks
        outcome.failed += tasks
        outcome.info.setdefault("errors", []).append(traceback.format_exc(limit=3))
        return {"ok": False, "wall_s": perf_counter() - start, "events": []}
    wall_s = perf_counter() - start
    events = _ledger(result.ledger_path)
    status: Dict[str, str] = {}
    for event in events:
        if event.get("task") and event["event"] in _FINAL:
            status[event["task"]] = _FINAL[event["event"]]
    failed = sum(1 for s in status.values() if s != "done") + (tasks - len(status))
    outcome.failed += failed
    (scenario,) = spec.scenarios()
    state = None
    if result.ok:
        state = ArtifactStore(os.path.join(result.run_dir, "artifacts")).get_state(
            state_key(scenario.fingerprint(), scenario.rounds - 1)
        )
    errors = [e.get("error", "") for e in events if e["event"] == "failed"]
    return {
        "ok": result.ok and failed == 0,
        "wall_s": wall_s,
        "events": events,
        "failed_tasks": failed,
        "first_error": errors[0] if errors else "",
        "arms": {name: vars(m) for cell in result.cells for name, m in cell.arms.items()},
        "state": state,
    }


def measure(state: Dict, seed: int, outcome: Outcome, args) -> Dict:
    root = state["root"] / f"pass-{time.time_ns()}"
    serial = _run(state["spec"], 0, root / "serial", outcome)
    pooled = _run(state["spec"], nproc(), root / "pooled", outcome)
    return {"serial": serial, "pooled": pooled}


def _state_digest(state: Optional[Dict]) -> str:
    if state is None:
        return ""
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(state[key].tobytes())
    return digest.hexdigest()[:16]


def _round_times(events: List[Dict]) -> List[float]:
    """Wall time of each federated round: first client start to its aggregate.

    A round sums all clients' work, so it does not move with how the
    seed's Dirichlet split sizes individual clients.
    """
    starts: Dict[str, float] = {}
    ends: Dict[str, float] = {}
    for event in events:
        task = event.get("task", "")
        if event["event"] == "started" and task.startswith("fedc:"):
            round_id = task.rsplit(":", 1)[0].replace("fedc:", "", 1)
            starts[round_id] = min(starts.get(round_id, event["ts"]), event["ts"])
        elif event["event"] == "finished" and task.startswith("feda:"):
            ends[task.replace("feda:", "", 1)] = event["ts"]
    return [ends[r] - starts[r] for r in sorted(ends) if r in starts]


def report(result: Dict, outcome: Outcome) -> Dict[str, Named]:
    serial, pooled = result["serial"], result["pooled"]
    outcome.check("tablef.serial_completes", serial["ok"], f"{serial.get('failed_tasks')} tasks failed")
    named = outcome.named
    named["tablef_serial_s"] = Named(serial["wall_s"], "s", "workers=0")
    if pooled["ok"]:
        named["tablef_pooled_s"] = Named(pooled["wall_s"], "s", f"workers={nproc()}")
        same = _state_digest(pooled["state"]) == _state_digest(serial["state"])
        outcome.check("tablef.pooled_equals_serial", same and pooled["arms"] == serial["arms"],
                      "final global state and arm metrics, bitwise")
    else:
        outcome.info["pooled_failure"] = {
            "failed_tasks": pooled.get("failed_tasks"),
            "wall_s": round(pooled["wall_s"], 3),
            "first_error": pooled.get("first_error", ""),
        }
    arm = serial["arms"].get("fed_unlearn", {})
    named["tablef_asr"] = Named(arm.get("asr", float("nan")), "fraction", "fed_unlearn arm, serial")
    named["tablef_acc"] = Named(arm.get("acc", float("nan")), "fraction", "fed_unlearn arm, serial")
    rounds = Timing(_round_times(serial["events"]) or [float("nan")])
    tail, label = rounds.tail
    named["round_s"] = Named(rounds.median, "s", f"serial ledger, median of {rounds.n}, {label} {tail:.4f}")
    done = sum(1 for e in serial["events"] if e["event"] == "finished")
    return {
        "job_s": Named(serial["wall_s"], "s"),
        "items_per_s": Named(done / serial["wall_s"], "1/s"),
        "good_pct": Named(100.0 * (outcome.attempted - outcome.failed) / outcome.attempted, "%"),
    }


def digest_payload(result: Dict) -> Dict:
    serial = result["serial"]
    return {"state": _state_digest(serial.get("state")), "arms": serial.get("arms")}


def layer_values(result: Dict) -> Dict[str, float]:
    counts: Counter = Counter()
    queue_wait = busy = barrier = 0.0
    for half in (result["serial"], result["pooled"]):
        ready: Dict[str, float] = {}
        finishes: Dict[str, List[float]] = defaultdict(list)
        for event in half["events"]:
            kind, task = event["event"], event.get("task")
            counts[kind] += 1
            if kind in ("queued", "retried"):
                ready[task] = event["ts"]
            elif kind == "started" and task in ready:
                queue_wait += event["ts"] - ready.pop(task)
            if kind in ("finished", "failed"):
                busy += event.get("elapsed", 0.0)
            if kind == "finished" and event.get("kind") == "fed_client":
                round_id = task.rsplit(":", 1)[0]  # fedc:<fp>:<round>
                finishes[round_id].append(event["ts"])
        barrier += sum(max(ts) - min(ts) for ts in finishes.values())
    return {
        "orchestrator.pool.tasks_started": counts["started"],
        "orchestrator.pool.tasks_finished": counts["finished"],
        "orchestrator.pool.tasks_failed": counts["failed"],
        "orchestrator.pool.tasks_retried": counts["retried"],
        "orchestrator.pool.tasks_skipped": counts["skipped"],
        "orchestrator.pool.queue_wait_s": queue_wait,
        "orchestrator.pool.task_busy_s": busy,
        "federated.round.barrier_wait_s": barrier,
    }


def teardown(state: Dict) -> None:
    shutil.rmtree(state["root"], ignore_errors=True)
    state.clear()
