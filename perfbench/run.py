#!/usr/bin/env python3
"""The repo benchmark: one command per workload, from the checkout root.

    python3 perfbench/run.py --workload gradprune --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``gradprune`` (Grad-Prune defense on a Table I cell), ``serve`` (the
serving gateway under open-loop and saturating load) and ``tablef`` (one
federated tableF cell through the orchestrator, serial then pooled).

The run prints a human-readable report (every named metric with its unit
and sample count, the host fingerprint, the correctness checks), then, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run repeats the measured phase with
spans on and reports tracing overhead against its own untraced pass.  The
exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from time import perf_counter, time

import common
from common import OUT, Named, Outcome

WORKLOADS = ("gradprune", "serve", "tablef")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of serve's open-loop phase; the other "
                             "workloads run a fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared():
    """End-to-end and per-layer metric names declared in BENCHMARK.json."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _print_report(args, outcome: Outcome, host, e2e, per_layer) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    blas = host["blas"]
    print(
        f"host: nproc={host['nproc']} blas={blas['name']} {blas['version']} "
        f"numpy={host['numpy']} thread_env={host['thread_env'] or '{}'}"
    )
    if host["non_default"]:
        print(f"WARNING: non-default program configuration: {host['non_default']}")
    print("named metrics:")
    for name, metric in outcome.named.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {name:<26} {metric.value:>14.6g} {metric.unit}{note}")
    print("end-to-end metrics:")
    for name, metric in e2e.items():
        print(f"  {name:<26} {metric.value:>14.6g} {metric.unit}")
    if per_layer:
        print("per-layer metrics (traced pass):")
        for name, metric in per_layer.items():
            print(f"  {name:<42} {metric.value:>14.6g} {metric.unit}")
    for key, value in outcome.info.items():
        if key != "errors":
            print(f"{key}: {json.dumps(value, sort_keys=True, default=str)}")
    for error in outcome.info.get("errors", [])[:3]:
        print("error:", error.strip().splitlines()[-1])
    for name, ok, detail in outcome.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}")
    print(f"attempted={outcome.attempted} failed={outcome.failed} correct={outcome.correct}")


def _measure(workload, state, args, outcome: Outcome, declared_layers):
    """The untraced pass and, with ``--trace 1``, the traced one."""
    from tracing import Tracer, dump_spans, overhead

    start = perf_counter()
    result = workload.measure(state, args.seed, outcome, args)
    untraced_s = perf_counter() - start
    e2e = workload.report(result, outcome)
    digest = common.digest_of(workload.digest_payload(result))

    per_layer = {}
    if args.trace:
        tracer = Tracer().install()
        try:
            start = perf_counter()
            traced = workload.measure(state, args.seed, outcome, args)
            traced_s = perf_counter() - start
        finally:
            tracer.uninstall()
        again = common.digest_of(workload.digest_payload(traced))
        outcome.check("traced_pass_repeats", again == digest, f"{digest} vs {again}")
        values = tracer.summarize(traced_s)
        values.update(workload.layer_values(traced))
        values.update(overhead(traced_s, untraced_s))
        per_layer = {name: Named(float(values.get(name, 0.0)), unit)
                     for name, unit in declared_layers.items()}
        dump_spans(tracer, str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"), start)

    return e2e, per_layer, digest, untraced_s


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.import_program()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.adopt_orphans()
    common.exit_on_sigterm()
    try:
        return _run(args)
    finally:
        # Every path out, a crash included: no process of this run survives it.
        from repro.nn.engine import reset_engine

        reset_engine()
        stuck = common.stop_children()
        if stuck:
            print(f"perfbench: child processes would not stop: {stuck}", file=sys.stderr)


def _run(args) -> int:
    from repro.nn.engine import reset_engine

    declared_e2e, declared_layers = _declared()
    workload = importlib.import_module(f"wl_{args.workload}")
    OUT.mkdir(parents=True, exist_ok=True)
    host = common.host_fingerprint()
    shm_before = common.shm_entries()
    outcome = Outcome()

    state = workload.setup(args.seed, outcome, args)
    setup_times = state["setup_times"]
    try:
        e2e, per_layer, digest, untraced_s = _measure(
            workload, state, args, outcome, declared_layers
        )
    finally:
        workload.teardown(state)
    reset_engine()
    left = common.stop_children()
    outcome.check("no_child_left", not left, f"pids {left}" if left else "")
    leaked = sorted(common.shm_entries() - shm_before)
    outcome.named["shm_leaked"] = Named(len(leaked), "count", "/dev/shm after teardown")
    outcome.check("no_shm_leak", not leaked, ", ".join(leaked))
    own_mb, children_mb = common.peak_rss_mb()
    outcome.named["peak_rss_mb"] = Named(
        own_mb + children_mb, "MB", f"self {own_mb:.1f} + children {children_mb:.1f}"
    )
    e2e["setup_s"] = Named(statistics.median(setup_times), "s")
    outcome.named["setup_s"] = Named(
        statistics.median(setup_times), "s", f"median of {len(setup_times)}"
    )
    e2e["peak_rss_mb"] = outcome.named["peak_rss_mb"]
    e2e = {name: e2e[name] for name in declared_e2e}

    previous = common.remember_digest(args.workload, args.seed, digest, {"at": time()})
    outcome.check(
        "repeats_earlier_run", previous in (None, digest),
        f"digest {digest}" + ("" if previous is None else f", earlier run {previous}"),
    )

    _print_report(args, outcome, host, e2e, per_layer)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "digest": digest, "untraced_s": untraced_s,
        "named": {k: vars(v) for k, v in outcome.named.items()},
        "checks": outcome.checks, "info": outcome.info,
    }
    (OUT / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    chosen = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in chosen.items()},
    }))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
