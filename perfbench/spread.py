#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10

For every end-to-end metric: the median over the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound in ``BENCHMARK.json``.  Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, quantile_spread


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in _seeds(args.seeds):
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {done.returncode} correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}", flush=True)
        for name, metric in line["metrics"].items():
            values[name].append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = quantile_spread(series) if len(series) >= 2 else float("nan")
        print(f"{metric['name']:<14} median {statistics.median(series):>12.5g} "
              f"spread {spread:7.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
