"""Run one workload over several seeds and summarize each metric.

    python3 bench/summarize.py --workload prefill_long --seeds 1-10 --seconds 30

Runs bench/run.py once per seed, one after another, and prints for each
metric the median, the quartiles (statistics.quantiles, n = 4) and the
spread (interquartile distance over median), the same for the unscaled
`raw.*` metrics of the result files, and the longest run's wall time. With --out it also writes the per-run values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="like 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        wall_s = time.perf_counter() - begin
        out_file = RUN.parent / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        named = json.loads(out_file.read_text())["named"]
        raw = {k: {"value": v, "unit": "1/s" if "throughput" in k else "ms"}
               for k, v in named.items() if k.startswith("raw.")}
        runs.append({"seed": seed, "wall_s": wall_s, **result, "raw": raw})

    summary = {}
    merged = [{**run["metrics"], **run["raw"]} for run in runs]
    for name, entry in merged[0].items():
        if any(name not in metrics for metrics in merged):
            continue  # a raw p90 that some runs lacked the samples for
        values = [metrics[name]["value"] for metrics in merged]
        q1, median, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
        summary[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
        print(f"{name:40s} median {median:12.6g} {entry['unit']:9s} q1 {q1:12.6g} "
              f"q3 {q3:12.6g} spread {summary[name]['spread']:.4f}")
    print(f"{len(runs)} runs, {sum(r['failed'] for r in runs)} failed of "
          f"{sum(r['attempted'] for r in runs)} attempted, longest run "
          f"{max(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": len(runs), "summary": summary, "per_run": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
