"""Run one parvts benchmark workload and print its metrics.

    python3 bench/run.py --workload prefill_long --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from `src/`. One
process, one client, closed loop: the next request starts when the previous
one returns. BLAS is pinned to BLAS_THREADS threads (never more than nproc).
Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones. With `--trace 1` cycles alternate
between untraced and traced; the metrics are the per-layer ones from the
traced cycles plus the tracing overhead (traced minus untraced). A run that
lacks the samples for one of its metrics (a p90 needs ten samples beyond it;
a secondary metric needs one clean request of its kind) prints a result that
is not correct and exits with code 1. Results, and with `--trace 1` the
spans, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("prefill_long", "decode_long", "lab_cli")
BLAS_THREADS = 1
SETUP_REPEATS = 11
GATED_PERCENTILE = 90
# No cycle starts after this many seconds of measuring (or after --seconds,
# if that is longer), so that a run ends well within three minutes.
MAX_MEASURE_S = 100.0
GATED = ("latency_ms.p50", "latency_ms.p90", "throughput_per_s", "secondary_ms",
         "peak_rss_mb", "setup_s")


def _pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def host_record(blas_threads: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _latency_summary(values, name: str, unit: str) -> dict:
    """p50, and p90 only when ten or more samples lie beyond it; nothing for
    an empty sample."""
    from stats import percentile, samples_beyond

    out = {}
    if values:
        out[f"{name}.p50"] = (percentile(values, 50), unit)
    if samples_beyond(len(values), GATED_PERCENTILE) >= 10:
        out[f"{name}.p90"] = (percentile(values, GATED_PERCENTILE), unit)
    return out


def gated_samples(workload: str, kind: str, outcome) -> int:
    """Samples one request or command adds to the gated latency percentile:
    one TTFT, its inter-token latencies, or one `parvts run` time."""
    if outcome.problems or (workload == "lab_cli" and kind != "run"):
        return 0
    return len(outcome.itl) if workload == "decode_long" else 1


def report_metrics(workload: str, records) -> tuple[dict, dict]:
    """(named metrics for the human-readable lines, gated end-to-end metrics).

    The gated set has the same names on every workload; see bench/NOTES.md
    for what each name measures on each workload. A metric whose samples are
    missing (too few for a p90, or every request of a kind failed) is left
    out; it is never replaced by another quantity.
    """
    from stats import percentile

    ok = [r for r in records if not r.problems]
    named: dict = {"failed_frac": ((len(records) - len(ok)) / max(len(records), 1), "ratio")}
    if workload == "lab_cli":
        named.update(_latency_summary([r.ms for r in ok if r.kind == "run"], "run_ms", "ms"))
        verify_ms = [r.ms for r in ok if r.kind == "verify"]
        if verify_ms:
            named["verify_s.p50"] = (percentile(verify_ms, 50) / 1e3, "s")
        if ok:
            named["ops_per_s"] = (len(ok) / (sum(r.ms for r in ok) / 1e3), "1/s")
        head, rate, secondary = "run_ms", "ops_per_s", ("verify_s.p50", 1e3)
    else:
        ttft = [r.ttft_ms for r in ok]
        itl = [x for r in ok for x in r.itl_ms]
        named.update(_latency_summary(ttft, "ttft_ms", "ms"))
        named.update(_latency_summary(itl, "itl_ms", "ms"))
        if ttft:
            named["ttft_ms.mean"] = (sum(ttft) / len(ttft), "ms")
            named["prompt_tokens_per_s"] = (sum(r.prompt_tokens for r in ok) / (sum(ttft) / 1e3), "1/s")
        if itl:
            named["decode_tokens_per_s"] = (len(itl) / (sum(itl) / 1e3), "1/s")
        named.update(_breakdown(workload, ok))
        if workload == "prefill_long":
            head, rate, secondary = "ttft_ms", "prompt_tokens_per_s", ("itl_ms.p50", 1.0)
        else:  # decode against the pruned cache, the paper's decoding gain
            head, rate, secondary = "itl_ms", "decode_tokens_per_s", ("itl_ms.ParVTSBatch.p50", 1.0)
    sources = {
        "latency_ms.p50": (f"{head}.p50", 1.0, "ms"),
        "latency_ms.p90": (f"{head}.p90", 1.0, "ms"),
        "throughput_per_s": (rate, 1.0, "1/s"),
        "secondary_ms": (*secondary, "ms"),
    }
    gated = {gate: (named[source][0] * factor, unit)
             for gate, (source, factor, unit) in sources.items() if source in named}
    return named, gated


def _breakdown(workload: str, ok) -> dict:
    """Per-strategy medians, to set beside earlier single-shape timings."""
    from stats import percentile

    out = {}
    for strategy in sorted({r.kind for r in ok}):
        mine = [r for r in ok if r.kind == strategy]
        out[f"ttft_ms.{strategy}.p50"] = (percentile([r.ttft_ms for r in mine], 50), "ms")
        itl = [x for r in mine for x in r.itl_ms]
        if itl:
            out[f"itl_ms.{strategy}.p50"] = (percentile(itl, 50), "ms")
    vanilla = [r for r in ok if r.kind == "Vanilla"]
    if workload == "prefill_long":
        for length in sorted({r.prompt_tokens for r in vanilla}):
            samples = [r.ttft_ms for r in vanilla if r.prompt_tokens == length]
            out[f"ttft_ms.Vanilla.L{length}.p50"] = (percentile(samples, 50), "ms")
    else:
        # the step whose cache holds 960 to 1088 entries per layer after its append
        near_1k = [x for r in vanilla for i, x in enumerate(r.itl_ms)
                   if 960 <= r.prompt_tokens + i + 1 <= 1088]
        if near_1k:
            out["itl_ms.Vanilla.cache_1k.p50"] = (percentile(near_1k, 50), "ms")
    return out


class _Unscaled:
    """Stands in for the probe where raw wall times are wanted."""

    @staticmethod
    def scaled_ms(begin: float, end: float) -> float:
        return (end - begin) * 1e3


UNSCALED = _Unscaled()


class Record:
    """One attempted request or command, its intervals scaled by the probe."""

    def __init__(self, kind, outcome, prompt_tokens, traced, rid, probe):
        self.kind = kind
        self.prompt_tokens = prompt_tokens
        self.problems = outcome.problems
        self.traced = traced
        self.rid = rid
        self.outcome = outcome
        self.raw_ms = (outcome.span[1] - outcome.span[0]) * 1e3
        if outcome.ttft is None:  # a CLI command, or a request that raised
            self.ttft_ms, self.itl_ms = 0.0, []
            self.ms = probe.scaled_ms(*outcome.span)
        else:
            self.ttft_ms = probe.scaled_ms(*outcome.ttft)
            self.itl_ms = [probe.scaled_ms(b, e) for b, e in outcome.itl]
            self.ms = self.ttft_ms + sum(self.itl_ms)

    def unscaled(self) -> "Record":
        """The same record with raw wall times."""
        return Record(self.kind, self.outcome, self.prompt_tokens, self.traced, self.rid, UNSCALED)


def measure(workload, state, seed, seconds, probe, tracer=None):
    """Closed loop over whole cycles until `seconds` of wall time have passed.

    Without a tracer the loop then goes on, a whole cycle at a time, until
    the gated latency percentile has ten samples beyond it, but starts no
    cycle after MAX_MEASURE_S. With a tracer, odd cycles run traced and even
    cycles untraced, and at least one of each runs. Returns (records,
    spot-check candidates, cycles run, wall seconds measured).
    """
    import layers
    import workloads as wl
    from stats import samples_beyond

    attempts, candidates, seen = [], [], set()
    min_cycles = 2 if tracer is not None else 1
    samples = 0
    begin = time.perf_counter()
    cycle = 0
    while cycle < min_cycles or (
        time.perf_counter() - begin < seconds
        or (tracer is None and samples_beyond(samples, GATED_PERCENTILE) < 10
            and time.perf_counter() - begin < max(seconds, MAX_MEASURE_S))
    ):
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            for index, item in enumerate(wl.cycle_items(workload, state, seed, cycle, str(OUT_DIR))):
                rid = f"{cycle}:{index}"
                if tracer is not None:
                    tracer.request = rid
                kind = item.kind if workload == "lab_cli" else item.strategy
                tokens = 0 if workload == "lab_cli" else item.layout.total_prefill
                outcome = wl.attempt(workload, state, item, probe)
                attempts.append((kind, outcome, tokens, traced, rid))
                if not traced:
                    samples += gated_samples(workload, kind, outcome)
                if workload != "lab_cli" and not traced and kind not in seen and not outcome.problems:
                    seen.add(kind)
                    candidates.append((len(attempts) - 1, item, outcome))
        finally:
            if traced:
                tracer.restore()
        cycle += 1
    wall_s = time.perf_counter() - begin
    probe.sample()  # so that the last interval has samples after it too
    records = [Record(*entry, probe) for entry in attempts]
    return records, [(records[i], item, outcome) for i, item, outcome in candidates], cycle, wall_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = _pin_blas_threads()  # before numpy loads OpenBLAS
    if not (SRC_DIR / "parvts" / "__init__.py").is_file():
        print(f"error: parvts sources not found at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    import checks
    import layers
    import workloads as wl
    from hostspeed import REF_MS, Probe
    from stats import percentile
    from tracing import Tracer

    host = host_record(blas_threads)
    OUT_DIR.mkdir(exist_ok=True)
    probe = Probe()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        tick = time.perf_counter()
        state = wl.setup(args.workload, args.seed, str(OUT_DIR))
        setup_spans.append((tick, time.perf_counter()))
    probe.sample()
    setup_raw = [end - begin for begin, end in setup_spans]
    setup_times = [probe.scaled_ms(*span) / 1e3 for span in setup_spans]

    wl.warm_up(args.workload, state, args.seed, probe)
    tracer = Tracer() if args.trace else None
    records, candidates, cycles, wall_s = measure(
        args.workload, state, args.seed, args.seconds, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Spot checks run after the measured loop, outside every timed region.
    for record, request, outcome in candidates:
        record.problems.extend(checks.decode_problems(state.model, request, outcome))

    untraced = [r for r in records if not r.traced]
    named, gated = report_metrics(args.workload, untraced)
    raw_named, raw_gated = report_metrics(args.workload, [r.unscaled() for r in untraced])
    for name in ("latency_ms.p50", "latency_ms.p90", "throughput_per_s"):
        if name in raw_gated:
            named[f"raw.{name}"] = raw_gated[name]
    # The first set-up pays for the first BLAS call; setup_s is the median.
    named["setup_s.first"] = (setup_times[0], "s")
    named["setup_s"] = (percentile(setup_times, 50), "s")
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    gated["setup_s"] = named["setup_s"]
    gated["peak_rss_mb"] = named["peak_rss_mb"]
    failed = [r for r in records if r.problems]

    if tracer is not None:
        traced = [r for r in records if r.traced]
        _, traced_gated = report_metrics(args.workload, traced)
        metrics = layers.layer_metrics(tracer, traced, probe)
        for name in ("latency_ms.p50", "throughput_per_s"):
            if name in traced_gated and name in gated:
                delta = traced_gated[name][0] - gated[name][0]
                metrics[f"trace.overhead.{name}"] = (delta, gated[name][1])
                metrics[f"trace.overhead_frac.{name}"] = (delta / gated[name][0], "ratio")
        missing = [f"trace.overhead.{name}" for name in ("latency_ms.p50", "throughput_per_s")
                   if f"trace.overhead.{name}" not in metrics]
    else:
        metrics = gated
        missing = [name for name in GATED if name not in metrics]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s asked, "
          f"{wall_s:.4g} s measured over {cycles} cycles, {len(records)} attempted, "
          f"{len(failed)} failed, {len(setup_times)} set-ups")
    print("host " + json.dumps(host))
    print(f"probe: kernel p50 {percentile(probe.samples_ms, 50):.4g} ms over "
          f"{len(probe.samples_ms)} samples (reference {REF_MS} ms); timed work "
          f"{sum(r.raw_ms for r in records) / 1e3:.4g} s raw, {sum(r.ms for r in records) / 1e3:.4g} s scaled")
    for name, (value, unit) in sorted(named.items()):
        print(f"  {name} = {value:.6g} {unit}")
    for record in failed[:5]:
        print(f"  failed {record.rid} {record.kind}: {'; '.join(record.problems)[:300]}")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
        for name, (value, unit) in sorted(metrics.items()):
            if name.startswith("trace."):
                print(f"  {name} = {value:.6g} {unit}")
    if missing:
        print(f"error: no samples for {', '.join(missing)} ({len(failed)} of {len(records)} "
              "failed); the result is not correct", file=sys.stderr)
    result = {
        "correct": not failed and not missing,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"host": host, "named": {k: v[0] for k, v in named.items()},
                   "raw_named": {k: v[0] for k, v in raw_named.items()},
                   "cycles": cycles, "measured_s": wall_s, "setup_raw_s": setup_raw,
                   "probe_ms": probe.samples_ms, "probe_cold_ms": probe.cold_ms, **result}, fh)
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
