"""Steadiness check: run one workload repeatedly, summarise each metric.

    python3 perfbench/steady.py --workload deadlock-explicit --runs 10

Runs ``perfbench/run.py`` ``--runs`` times with seeds ``--seed``,
``--seed + 1``, ... (tracing off) and prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and that spread as a share of the metric's
bound in ``BENCHMARK.json``.  Also prints the failed share of every run,
which must be identical across runs.  Use it to re-derive the bounds on
another machine: a bound should be at least three times the spread seen.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    series: dict[str, list[float]] = {}
    shares = []
    for i in range(args.runs):
        seed = args.seed + i
        out = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        report = json.loads(out.stdout.strip().splitlines()[-1])
        # Each distinct failure once, not once per pass.
        for line in dict.fromkeys(out.stderr.splitlines()):
            if line.startswith("perfbench:"):
                print(line, file=sys.stderr)
        shares.append(report["failed"] / report["attempted"])
        for name, metric in report["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        values = " ".join(
            f"{k}={v['value']:.4g}" for k, v in report["metrics"].items()
        )
        print(f"seed {seed}: attempted={report['attempted']} "
              f"failed={report['failed']} {values}", flush=True)

    summary = {}
    for name, values in series.items():
        row = summarise(values)
        row["bound"] = bounds.get(name)
        row["spread_per_bound"] = (
            row["spread"] / row["bound"] if row["bound"] else None
        )
        summary[name] = row
    steady = len(set(shares)) == 1
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'/bound':>8}")
    for name, row in summary.items():
        ratio = row["spread_per_bound"]
        print(f"{name:<20}{row['median']:>12.5g}{row['q1']:>12.5g}"
              f"{row['q3']:>12.5g}{row['spread']:>9.3f}"
              f"{row['bound'] or 0:>7.2f}"
              f"{'' if ratio is None else f'{ratio:.2f}':>8}")
    print(f"failed share identical in every run: {steady} ({shares[0]:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
