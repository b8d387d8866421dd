#!/usr/bin/env python3
"""Run the benchmark once per listed seed on each workload and report, per
end-to-end metric, the median and the quartile spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads ring-sweep gnf-sweep --seeds 23 24 25 --out spread.json
    python3 perfbench/spread.py --seeds 23 23 23 23 23 23 23 23 23 23   # ten repeats of one seed

Run from the repository root. Runs are serial; each is one
``perfbench/run.py`` process, which takes its run length from
BENCHMARK.json. A seed listed twice is run twice.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int) -> dict:
    """The run's result line, plus the output digests from its report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    result["digests"] = report["digests"]
    result["passes"] = len(report["passes"])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(23, 33)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's result and the spreads as JSON")
    parser.add_argument("--against", type=Path,
                        help="an earlier --out record: also check that no median got worse "
                             "than its median there by more than the bound")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["workloads"] if args.against else {}

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    record = {"seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, args.trace)
            result["seed"], result["run_s"] = seed, time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} passes {result['passes']} "
                  f"digest {' '.join(result['digests'])} run {result['run_s']:.1f} s  "
                  + "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                              if args.trace == 0), flush=True)
            steady &= result["correct"]
        summary = {}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median, share = spread(values) if len(values) > 1 else (values[0], 0.0)
            bound = metric.get("bound")
            summary[metric["name"]] = {"median": median, "spread": share, "bound": bound}
            if bound is not None:
                ok = share < bound
                steady &= ok
                print(f"  {workload:<15}{metric['name']:<13} median {median:10.6g} {metric['unit']:<3} "
                      f"spread {share:7.2%}  bound {bound:.0%}  "
                      f"{'ok' if ok else 'TOO WIDE'}{'' if share < bound / 3 else ' (above bound/3)'}")
                if workload in earlier:
                    before = earlier[workload]["summary"][metric["name"]]["median"]
                    worse = (median - before) / before * (1 if metric["better"] == "lower" else -1)
                    ok = worse <= bound
                    steady &= ok
                    print(f"  {'':<15}{'':<13} against {before:9.6g} {metric['unit']:<3} "
                          f"worse by {worse:7.2%}  bound {bound:.0%}  {'ok' if ok else 'TOO FAR'}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
