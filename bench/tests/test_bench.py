"""Tests of the benchmark's own code: inputs, statistics, spans and checks.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import math
import statistics
import time
import types
from pathlib import Path

import numpy as np
import pytest

from parvts import model as pm
from parvts import saliency as ps
from parvts import scheduler as sched

import checks
import hostspeed
import layers
import run
import workloads as wl
from stats import percentile, quartiles, samples_beyond
from tracing import Tracer, covered, self_times

BENCHMARK = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())


# --- workload generator -----------------------------------------------------

def _key(request):
    return _shape(request) + (request.token_ids.tobytes(),)


def _shape(request):
    return (request.strategy, request.num_visual, request.keep, request.migration_depth,
            request.steps)


@pytest.mark.parametrize("generate", [wl.prefill_cycle, wl.decode_cycle])
def test_request_cycles_are_deterministic_per_seed(generate):
    first, again, other = generate(7, 3), generate(7, 3), generate(8, 3)
    assert [_key(r) for r in first] == [_key(r) for r in again]
    assert [_key(r) for r in first] != [_key(r) for r in other]
    # the seed draws tokens and order, never the mix of shapes
    assert sorted(map(_shape, first)) == sorted(map(_shape, other))


def test_prefill_cycle_cycles_strategies_in_equal_shares():
    requests = wl.prefill_cycle(1, 0)
    counts = {s: sum(r.strategy == s for r in requests) for s in wl.STRATEGIES}
    assert set(counts.values()) == {len(requests) // len(wl.STRATEGIES)}
    assert all(r.token_ids.size == r.layout.total_prefill for r in requests)


def test_lab_cycle_is_deterministic_per_seed():
    first = wl.lab_cycle(7, 2, "c.cfg", "out")
    assert first == wl.lab_cycle(7, 2, "c.cfg", "out")
    assert first != wl.lab_cycle(8, 2, "c.cfg", "out")
    kinds = sorted(c.kind for c in first)
    assert kinds == sorted(c.kind for c in wl.lab_cycle(8, 2, "c.cfg", "out"))
    assert kinds.count("run") == 16 and kinds.count("verify") == 1


# --- statistics ----------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    rng = np.random.default_rng(0)
    sample = list(rng.normal(size=137))
    for q in (10, 50, 90, 99):
        assert math.isclose(percentile(sample, q), float(np.percentile(sample, q)), rel_tol=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p90():
    assert samples_beyond(101, 90) == 10
    assert samples_beyond(92, 90) == 10
    assert samples_beyond(91, 90) == 9
    ordered = list(range(101))
    assert sum(v > percentile(ordered, 90) for v in ordered) == samples_beyond(101, 90)


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert (q1, median, q3) == (1.875, 3.75, 5.625)


# --- spans and self time ------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 3.0, 0, 1],
        ["a.leaf", 1.5, 2.5, 1, 1],
        ["b", 2.0, 5.0, 0, 1],      # overlaps a: the union counts once
        ["c", 9.0, 12.0, 0, 1],     # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 1.0, 3.0, 3.0])
    assert covered((0.0, 1.0), []) == 0.0


def test_tracer_records_parents_counts_and_errors():
    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    namespace = types.SimpleNamespace(inner=inner)

    def outer(x):
        return namespace.inner(x) * 2

    namespace.outer = outer
    tracer = Tracer()
    tracer.wrap(namespace, "inner", "lib.inner@ns", "lib",
                lambda counts, span, args, kwargs, result: counts.__setitem__("seen", args[0]))
    tracer.wrap(namespace, "outer", "lib.outer@ns", "lib")
    tracer.request = "r1"
    assert namespace.outer(3) == 8
    with pytest.raises(ValueError):
        namespace.outer(-1)
    tracer.restore()
    assert namespace.inner is inner and namespace.outer is outer
    names = [s[0] for s in tracer.spans]
    assert names == ["lib.outer@ns", "lib.inner@ns", "lib.outer@ns", "lib.inner@ns"]
    assert [s[3] for s in tracer.spans] == [None, 0, None, 2]
    assert all(s[4] == "r1" and s[2] >= s[1] for s in tracer.spans)
    assert tracer.counts["seen"] == 3
    assert tracer.errors["lib"] == 2  # raised out of inner, then out of outer


def test_bindings_wrap_callers_names():
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in layers.bindings()}
    for site, attr in [("parvts.scheduler", "run_layers"), ("parvts.harness", "run_strategy"),
                       ("parvts.harness", "greedy_decode"), ("parvts.harness", "oracle_two_pass"),
                       ("parvts.model", "masked_softmax_rows"), ("parvts.cli", "run_checks")]:
        assert (site, attr) in wrapped
    tracer = Tracer()
    original = pm.KVCache.append
    layers.install(tracer)
    assert pm.KVCache.append is not original
    tracer.restore()
    assert pm.KVCache.append is original


# --- output checks --------------------------------------------------------------

TINY = pm.build_model(pm.ModelConfig(4, 16, 2, 32, 64, 256, 5))
PROBE = hostspeed.Probe()


def _request(strategy, keep=3, visual=8, steps=4, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, TINY.config.vocab_size, wl.NUM_SYSTEM + visual + wl.NUM_QUESTION)
    return wl.Request(strategy, visual, keep, 2, steps, ids)


@pytest.mark.parametrize("strategy", wl.STRATEGIES)
def test_clean_requests_pass_every_check(strategy):
    request = _request(strategy)
    outcome = wl.serve(TINY, request, PROBE)
    assert outcome.problems == []
    assert len(outcome.decoded) == request.steps and len(outcome.itl) == request.steps
    assert checks.decode_problems(TINY, request, outcome) == []


@pytest.mark.parametrize("keep", [0, 8])
def test_recomputation_matches_collapsed_batch_runs(keep):
    request = _request("ParVTSBatch", keep=keep)
    outcome = wl.serve(TINY, request, PROBE)
    assert outcome.problems == []
    assert checks.decode_problems(TINY, request, outcome) == []


def test_spot_check_catches_a_changed_decoded_id():
    request = _request("ParVTSMasked")
    outcome = wl.serve(TINY, request, PROBE)
    outcome.decoded[2] = (outcome.decoded[2] + 1) % TINY.config.vocab_size
    problems = checks.decode_problems(TINY, request, outcome)
    assert problems and "decoded id 3" in problems[0]


def _prefill(strategy, keep=3):
    request = _request(strategy, keep=keep, steps=0)
    layout = request.layout
    sal = ps.toy_cls_attention(pm.embed(TINY, request.token_ids[slice(*layout.visual_span)]), 0)
    partition = ps.partition_topk(sal, keep)
    result = sched.run_strategy(TINY, request.token_ids, layout, partition, request.schedule)
    expected = checks.expected_cache(strategy, layout, partition, 2, 4, np.empty(0, np.int64))
    return result, expected, partition, layout, request


def test_cache_check_catches_a_pruned_position_still_cached():
    result, expected, *_ = _prefill("ParVTSBatch")
    assert checks.cache_problems(result.cache, expected) == []
    vanilla, *_ = _prefill("Vanilla")
    problems = checks.cache_problems(vanilla.cache, expected)
    assert any("pruned position cached" in p for p in problems)


def test_cache_check_catches_a_missing_entry():
    result, expected, partition, layout, _ = _prefill("ParVTSMasked")
    kept = layout.visual_span[0] + partition.subject_indices
    faulty = result.cache.drop_positions([int(kept[0])])
    problems = checks.cache_problems(faulty, expected)
    assert any("entries, expected" in p for p in problems)


def test_cache_check_catches_keys_out_of_step_with_positions():
    result, expected, *_ = _prefill("SubjectFirst")
    faulty = result.cache.drop_positions([])
    faulty._keys[1] = faulty._keys[1][:-1]
    assert any("keys/values" in p for p in checks.cache_problems(faulty, expected))


def test_logits_check_catches_non_finite_values():
    assert checks.logits_problems(np.array([0.0, 1.0])) == []
    assert checks.logits_problems(np.array([0.0, np.nan])) == ["non-finite logits"]
    assert checks.logits_problems(np.array([np.inf, 1.0])) == ["non-finite logits"]


def test_a_raising_request_is_a_failed_outcome():
    request = _request("Vanilla")
    bad = wl.Request("Vanilla", request.num_visual, 3, 2, 1, request.token_ids + 10_000)
    outcome = wl.attempt("prefill_long", wl.State(TINY, []), bad, PROBE)
    assert outcome.problems and outcome.problems[0].startswith("raised")


def test_a_cli_command_fails_on_a_non_zero_exit_code():
    failing = wl.run_command(wl.Command("run", ("run", "--set", "tokens.visual=0")))
    assert failing.problems and failing.problems[0].startswith("exit code 1")
    passing = wl.run_command(wl.Command("cost", ("cost", "--p", "0.5")))
    assert passing.problems == []


# --- host-speed probe --------------------------------------------------------------

def test_probe_scales_by_the_median_kernel_time_near_an_interval():
    probe = hostspeed.Probe()
    probe.sample()
    assert len(probe.samples_ms) == 1 and probe.samples_ms[0] > 0
    assert probe.scale(0.0, 1.0) == pytest.approx(hostspeed.REF_MS / probe.samples_ms[0])
    probe.times = [float(t) for t in range(10)]
    probe.samples_ms = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # one sample within HALF_WINDOW_S: widened to the five nearest (t = 1..5)
    assert probe.scale(2.9, 3.1) == pytest.approx(hostspeed.REF_MS / 4.0)
    # a long interval covers samples t = 2..8
    assert probe.scale(2.0, 8.0) == pytest.approx(hostspeed.REF_MS / 6.0)
    # at the end of the run the nearest samples all lie before it
    assert probe.scale(20.0, 21.0) == pytest.approx(hostspeed.REF_MS / 8.0)
    assert probe.scaled_ms(3.0, 3.5) == pytest.approx(500.0 * hostspeed.REF_MS / 4.0)


# --- the printed result ------------------------------------------------------------

def test_row_formula_matches_cost_model_for_vanilla():
    result, _, partition, layout, request = _prefill("Vanilla")
    executed = layers.executed_row_layers("Vanilla", 4, result.phase_token_counts, request.schedule)
    assert executed == layers.formula_row_layers("Vanilla", 4, layout, partition, request.schedule)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_lab_cli_prints_exactly_the_declared_metrics(trace, key, capsys):
    code = run.main(["--workload", "lab_cli", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


# --- sample counts and failures ----------------------------------------------------

def _records(workload, kinds, failing=(), ttft_ms=None):
    """Clean (or, for kinds in `failing`, failed) records with raw times."""
    out = []
    for index, kind in enumerate(kinds):
        ms = ttft_ms[index] if ttft_ms else 1.0 + index
        problems = ["injected"] if kind in failing else []
        if workload == "lab_cli":
            outcome = wl.Outcome(problems, span=(0.0, ms / 1e3))
        else:
            outcome = wl.Outcome(problems, span=(0.0, ms / 1e3 + 0.002), ttft=(0.0, ms / 1e3),
                                 itl=[(0.0, 0.001), (0.0, 0.002)])
        out.append(run.Record(kind, outcome, 100, False, f"0:{index}", run.UNSCALED))
    return out


def test_a_short_run_never_reports_the_p50_as_the_p90():
    ttft = [float(v) for v in range(1, 92)]
    _, gated = run.report_metrics("prefill_long", _records("prefill_long", ["Vanilla"] * 91,
                                                           ttft_ms=ttft))
    assert "latency_ms.p90" not in gated and gated["latency_ms.p50"][0] == pytest.approx(46.0)
    ttft.append(92.0)
    _, gated = run.report_metrics("prefill_long", _records("prefill_long", ["Vanilla"] * 92,
                                                           ttft_ms=ttft))
    assert gated["latency_ms.p90"][0] == pytest.approx(percentile(ttft, 90))
    assert gated["latency_ms.p90"][0] > gated["latency_ms.p50"][0]


def _fake_attempt(fail):
    def attempt(workload, state, item, probe):
        now = time.perf_counter()
        kind = item.kind if workload == "lab_cli" else item.strategy
        problems = ["injected"] if kind in fail else []
        if workload == "lab_cli":
            return wl.Outcome(problems, span=(now, now + 1e-3))
        return wl.Outcome(problems, span=(now, now + 2e-3), ttft=(now, now + 1e-3),
                          itl=[(now, now + 1e-4)] * item.steps)
    return attempt


@pytest.mark.parametrize("workload, cycles", [("prefill_long", 3), ("lab_cli", 6),
                                               ("decode_long", 1)])
def test_measure_runs_whole_cycles_until_the_p90_has_ten_samples_beyond(
        workload, cycles, monkeypatch):
    monkeypatch.setattr(wl, "attempt", _fake_attempt(()))
    state = wl.State(TINY, wl.cycle_items(workload, wl.State(TINY, [], "c.cfg"), 5, 1, "out"),
                     "c.cfg")
    records, _, ran, _ = run.measure(workload, state, 5, 0.0, hostspeed.Probe())
    assert ran == cycles
    assert "latency_ms.p90" in run.report_metrics(workload, records)[1]


def test_measure_stops_starting_cycles_after_its_limit(monkeypatch):
    monkeypatch.setattr(wl, "attempt", _fake_attempt(set(wl.STRATEGIES)))
    monkeypatch.setattr(run, "MAX_MEASURE_S", 0.0)
    state = wl.State(TINY, wl.prefill_cycle(5, 0))
    records, candidates, ran, _ = run.measure("prefill_long", state, 5, 0.0, hostspeed.Probe())
    assert ran == 1 and candidates == [] and all(r.problems for r in records)
    assert run.report_metrics("prefill_long", records)[1] == {}


def test_failing_sub_populations_leave_their_metrics_out():
    named, gated = run.report_metrics(
        "decode_long", _records("decode_long", ["Vanilla", "ParVTSBatch"] * 3,
                                failing={"ParVTSBatch"}))
    assert "secondary_ms" not in gated and "itl_ms.ParVTSBatch.p50" not in named
    assert named["failed_frac"][0] == pytest.approx(0.5)
    assert {"latency_ms.p50", "throughput_per_s"} <= set(gated)
    named, gated = run.report_metrics(
        "lab_cli", _records("lab_cli", ["run"] * 4 + ["verify", "cost"], failing={"verify"}))
    assert "secondary_ms" not in gated and "verify_s.p50" not in named
    assert gated["throughput_per_s"][0] > 0


def test_a_failing_verify_makes_the_run_not_correct(monkeypatch, capsys):
    def run_command(command):
        now = time.perf_counter()
        problems = ["exit code 1: injected"] if command.kind == "verify" else []
        return wl.Outcome(problems, span=(now, now + 1e-3))

    monkeypatch.setattr(wl, "run_command", run_command)
    code = run.main(["--workload", "lab_cli", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1 and result["attempted"] > result["failed"]
    assert "secondary_ms" not in result["metrics"] and "latency_ms.p90" in result["metrics"]
