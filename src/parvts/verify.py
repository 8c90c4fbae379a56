"""Built-in invariant and oracle checks behind the `verify` subcommand.

Each check runs on fixed seeded configurations and yields one deterministic
pass/fail line, so two runs of a passing build print byte-identical output.
The same checks back the acceptance test module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .cost import (
    CostParams,
    decoding_flops_parvts,
    decoding_flops_vanilla,
    migration_depth_for,
    preset_migration_depths,
    prefill_flops_parvts,
    prefill_flops_vanilla,
    speedup_decoding,
    speedup_prefill,
)
from .errors import InvalidArgumentError
from .harness import (
    ExperimentConfig,
    compare_states,
    decode_after,
    run_experiment,
    seeded_inputs,
    serialize_report,
)
from .model import ModelConfig
from .oracle import oracle_two_pass
from .saliency import partition_topk
from .scheduler import ScheduleConfig, Strategy, run_strategy, run_vanilla

ORACLE_TOLERANCE = 1e-6
SYSTEM_IDENTITY_TOLERANCE = 1e-12
CROSS_MODE_TOLERANCE = 1e-9
REDUCTION_TOLERANCE = 1e-9
SWEEP_BUDGET_SECONDS = 30.0
RATIO_FIT_BUDGET_SECONDS = 1.0
RATIO_FIT_TARGETS = (44.34, 37.26, 30.31)  # reference TFLOPs percentages
RATIO_FIT_BUDGETS = (161, 103, 46)
RATIO_FIT_POINTS = 10.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SweepCase:
    index: int
    num_layers: int
    hidden_dim: int
    num_visual: int
    keep_count: int
    migration_depth: int
    alpha: float


def sweep_cases() -> list[SweepCase]:
    """27 seeded configurations covering every axis of the comparison grid."""
    cases = []
    index = 0
    for num_layers in (2, 4, 6):
        for hidden_dim in (16, 32, 64):
            for num_visual in (8, 16, 32):
                keep = (1, num_visual // 2, num_visual - 1)[index % 3]
                joint = 1
                depth = (joint + 1, (num_layers + 1) // 2, num_layers)[(index // 3) % 3]
                alpha = (0.5, 0.25, 0.75)[(index // 9) % 3]
                cases.append(
                    SweepCase(index, num_layers, hidden_dim, num_visual, keep, depth, alpha)
                )
                index += 1
    return cases


class SweepRun:
    """The batch, masked and two-pass oracle prefills of one sweep case."""

    def __init__(self, case: SweepCase):
        self.case = case
        num_system, num_question = 4, 6
        model, layout, ids, saliency = seeded_inputs(
            ModelConfig(
                num_layers=case.num_layers,
                hidden_dim=case.hidden_dim,
                num_heads=2 if case.hidden_dim == 16 else 4,
                mlp_dim=2 * case.hidden_dim,
                vocab_size=97,
                max_positions=num_system + case.num_visual + num_question + 8,
                master_seed=1000 + case.index,
            ),
            num_system, case.num_visual, num_question,
        )
        partition = partition_topk(saliency, case.keep_count)
        cfg = ScheduleConfig(
            strategy=Strategy.PARVTS_BATCH,
            migration_depth=case.migration_depth,
            alpha=case.alpha,
            beta=1.0 - case.alpha,
            joint_prefix_layers=1,
        )
        self.batch = run_strategy(model, ids, layout, partition, cfg)
        self.masked = run_strategy(
            model, ids, layout, partition, replace(cfg, strategy=Strategy.PARVTS_MASKED)
        )
        self.oracle = oracle_two_pass(model, ids, layout, partition, cfg)
        # Held until the sweep is dropped: freeing each model between runs
        # leaves the heap fragmented among the kept results, and later 0.5 MB
        # allocations then grow and trim the heap top on every call.
        self.model = model


def check_oracle_equivalence(runs: list[SweepRun]) -> CheckResult:
    worst = 0.0
    for run in runs:
        max_abs = compare_states(run.batch.hidden, run.oracle.hidden)
        worst = max(worst, max_abs)
    ok = worst <= ORACLE_TOLERANCE
    detail = f"{len(runs)} configurations, max |batch - two-pass| = {worst:.3e}"
    return CheckResult("oracle_equivalence", ok, detail)


def check_sweep_runtime(seconds: float) -> CheckResult:
    ok = seconds < SWEEP_BUDGET_SECONDS
    return CheckResult("sweep_runtime_under_30s", ok, "yes" if ok else "no")


def check_system_token_identity(runs: list[SweepRun]) -> CheckResult:
    worst = 0.0
    layers_checked = 0
    for run in runs:
        diffs = run.batch.diagnostics["system_identity_max_diff"]
        layers_checked += len(diffs)
        if diffs:
            worst = max(worst, max(diffs))
    ok = worst <= SYSTEM_IDENTITY_TOLERANCE
    return CheckResult(
        "system_token_identity",
        ok,
        f"{layers_checked} branch layers, max |S_non - S_sub| = {worst:.3e}",
    )


def check_cross_mode_agreement(runs: list[SweepRun]) -> CheckResult:
    worst_rows = 0.0
    worst_gap = 0.0
    finite = True
    for run in runs:
        rows = compare_states(
            run.batch.diagnostics["retained_at_migration"],
            run.masked.diagnostics["retained_at_migration"],
        )
        gap = compare_states(
            run.batch.diagnostics["question_at_migration"],
            run.masked.diagnostics["question_at_migration"],
        )
        worst_rows = max(worst_rows, rows)
        worst_gap = max(worst_gap, gap)
        finite = finite and np.isfinite(gap)
    ok = worst_rows <= CROSS_MODE_TOLERANCE and finite
    return CheckResult(
        "cross_mode_agreement",
        ok,
        f"retained rows max |Δ| = {worst_rows:.3e}, question gap up to {worst_gap:.3e}",
    )


def _reduction_setup():
    return seeded_inputs(
        ModelConfig(
            num_layers=4,
            hidden_dim=32,
            num_heads=4,
            mlp_dim=64,
            vocab_size=89,
            max_positions=40,
            master_seed=7,
        ),
        3, 12, 5,
    )


def check_reduction_chain(setup) -> CheckResult:
    model, layout, ids, saliency = setup
    vanilla = run_vanilla(model, ids, layout)
    num_layers = model.config.num_layers
    all_kept = partition_topk(saliency, layout.num_visual)
    none_kept = partition_topk(saliency, 0)

    # (strategy, partition, n, alpha) of each schedule that reduces to vanilla
    cases = (
        (Strategy.PARVTS_BATCH, all_kept, num_layers, 0.0),
        (Strategy.PARVTS_MASKED, all_kept, 1, 0.5),
        (Strategy.SUBJECT_FIRST, all_kept, num_layers, 0.5),
        (Strategy.NONSUBJECT_FIRST, none_kept, num_layers, 0.5),
    )
    worst = 0.0
    for strategy, partition, n, alpha in cases:
        cfg = ScheduleConfig(strategy, n, alpha, 1.0 - alpha, 1)
        result = run_strategy(model, ids, layout, partition, cfg)
        aligned = vanilla.hidden[result.positions]
        max_abs = compare_states(result.hidden, aligned)
        worst = max(worst, max_abs)
    ok = worst <= REDUCTION_TOLERANCE
    return CheckResult(
        "reduction_chain", ok, f"4 reductions to vanilla, max |Δ| = {worst:.3e}"
    )


def check_kv_cache_pruning(setup) -> CheckResult:
    model, layout, ids, saliency = setup
    decode_steps = 4
    failures = []
    for keep in (0, 4, layout.num_visual):
        partition = partition_topk(saliency, keep)
        nonsubject = layout.visual_span[0] + partition.nonsubject_indices
        expected = layout.total_prefill - layout.num_visual + keep + decode_steps
        for strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED):
            name = strategy.value
            cfg = ScheduleConfig(strategy, 2, 0.5, 0.5, 1)
            result = run_strategy(model, ids, layout, partition, cfg)
            decode_after(model, result, decode_steps)
            counts = result.cache.entry_counts()
            if any(c != expected for c in counts):
                failures.append(f"{name} k={keep}: counts {counts} != {expected}")
            try:
                result.cache.check_invariants(pruned=nonsubject)
            except InvalidArgumentError as exc:
                failures.append(f"{name} k={keep}: {exc}")
    ok = not failures
    detail = "cache = |S|+k+|T|+M entries per layer, no non-subject positions"
    if failures:
        detail = "; ".join(failures)
    return CheckResult("kv_cache_pruning", ok, detail)


def check_cost_identities() -> CheckResult:
    gen = np.random.Generator(np.random.Philox(key=[99, 0]))
    mismatches = 0
    worst_rel = 0.0
    for _ in range(100):
        params = CostParams(
            p=float(gen.integers(0, 11)) / 10.0,
            n=1,
            N=int(gen.integers(1, 49)),
            L_text=int(gen.integers(0, 2049)),
            L_img=int(gen.integers(0, 2049)),
            M=int(gen.integers(1, 1001)),
            d=int(gen.integers(1, 513)),
            m=int(gen.integers(1, 2049)),
        )
        params = replace(params, n=int(gen.integers(1, params.N + 1)))
        stepwise = decoding_flops_vanilla(params, mode="stepwise")
        closed = decoding_flops_vanilla(params, mode="closed")
        if stepwise != closed:
            mismatches += 1
        ratio = decoding_flops_vanilla(params) / decoding_flops_parvts(params)
        rel = abs(speedup_decoding(params) - ratio) / ratio
        worst_rel = max(worst_rel, rel)

    grid_bad = 0
    for p in [i / 10.0 for i in range(11)]:
        for n in range(1, 6):
            for L_img in (0, 64, 576):
                for L_text in (8, 77):
                    for d in (64, 4096):
                        for m in (256, 11008):
                            params = CostParams(
                                p=p, n=n, N=5, L_text=L_text, L_img=L_img,
                                M=16, d=d, m=m,
                            )
                            rho = speedup_prefill(params)
                            boundary = p == 0.0 or n == 5 or L_img == 0
                            if boundary != (rho == 1.0) or rho < 1.0:
                                grid_bad += 1
    ok = mismatches == 0 and worst_rel <= 1e-12 and grid_bad == 0
    return CheckResult(
        "cost_model_identities",
        ok,
        "100 stepwise/closed tuples exact, ratio identity rel err "
        f"{worst_rel:.3e}, 1320-point prefill grid >= 1 with exact boundary",
    )


def check_cost_monotonicity() -> CheckResult:
    N = 6
    base = dict(N=N, L_text=16, L_img=48, d=32, m=64)
    bad = []
    for p in [i / 10.0 for i in range(1, 11)]:
        rhos = [
            speedup_decoding(CostParams(p=p, n=1, M=M, **base)) for M in range(1, 65)
        ]
        if not all(rhos[i + 1] < rhos[i] for i in range(len(rhos) - 1)):
            bad.append(f"rho_decoding not strictly decreasing in M at p={p}")
        for M in (1, 16, 64):
            decs = [
                speedup_decoding(CostParams(p=p, n=n, M=M, **base))
                for n in range(1, N + 1)
            ]
            if any(v != decs[0] for v in decs):
                bad.append(f"rho_decoding varies with n at p={p}, M={M}")
            pres = [
                speedup_prefill(CostParams(p=p, n=n, M=M, **base))
                for n in range(1, N + 1)
            ]
            if not all(pres[i + 1] <= pres[i] for i in range(len(pres) - 1)):
                bad.append(f"rho_prefill not non-increasing in n at p={p}")
    for n in range(1, N + 1):
        pres = [
            speedup_prefill(CostParams(p=i / 10.0, n=n, M=16, **base))
            for i in range(1, 11)
        ]
        if not all(pres[i + 1] >= pres[i] for i in range(len(pres) - 1)):
            bad.append(f"rho_prefill not non-decreasing in p at n={n}")
    ok = not bad
    detail = "decoding strictly decreasing in M, constant in n; prefill monotone in n and p"
    if bad:
        detail = "; ".join(sorted(set(bad)))
    return CheckResult("cost_model_monotonicity", ok, detail)


def ratio_fit():
    """Best L_text and the prefill percentage per budget at that fit."""
    n = migration_depth_for("LLaVA-1.5-7B")

    def ratios(l_text):
        out = []
        for kept in RATIO_FIT_BUDGETS:
            params = CostParams(
                p=1.0 - kept / 576.0, n=n, N=32, L_text=l_text, L_img=576,
                M=1, d=4096, m=11008,
            )
            out.append(100.0 * prefill_flops_parvts(params) / prefill_flops_vanilla(params))
        return out

    best_l, best_dev, best_ratios = None, None, None
    for l_text in range(10, 201):
        r = ratios(l_text)
        dev = sum(abs(a - b) for a, b in zip(r, RATIO_FIT_TARGETS))
        if best_dev is None or dev < best_dev:
            best_l, best_dev, best_ratios = l_text, dev, r
    return best_l, best_ratios


def check_reference_ratio_fit(fit: tuple[int, list[float]]) -> CheckResult:
    best_l, ratios = fit
    deviations = [abs(a - b) for a, b in zip(ratios, RATIO_FIT_TARGETS)]
    monotone = ratios[0] > ratios[1] > ratios[2]
    ok = monotone and max(deviations) <= RATIO_FIT_POINTS
    fits = ", ".join(
        f"{kept} tokens -> {r:.2f}% (target {t}%)"
        for kept, r, t in zip(RATIO_FIT_BUDGETS, ratios, RATIO_FIT_TARGETS)
    )
    return CheckResult("reference_ratio_fit", ok, f"L_text = {best_l}: {fits}")


def check_ratio_fit_runtime(seconds: float) -> CheckResult:
    ok = seconds < RATIO_FIT_BUDGET_SECONDS
    return CheckResult("reference_ratio_fit_under_1s", ok, "yes" if ok else "no")


# Published mapping, restated here independently of the cost module.
_EXPECTED_PRESETS = {
    ("LLaVA-1.5", "7B"): 3,
    ("LLaVA-1.5", "13B"): 3,
    ("LLaVA-Next", "7B"): 16,
    ("LLaVA-Next", "13B"): 16,
    ("Qwen2.5-VL", "3B"): 18,
    ("Qwen2.5-VL", "7B"): 18,
    ("Qwen3-VL", "2B"): 10,
    ("Qwen3-VL", "4B"): 12,
    ("Qwen3-VL", "8B"): 12,
    ("InternVL2", "2B"): 18,
    ("InternVL2", "8B"): 16,
    ("InternVL2.5", "2B"): 18,
    ("InternVL2.5", "8B"): 16,
    ("Video-LLaVA", "7B"): 24,
}


def check_preset_table() -> CheckResult:
    table = {(b, s): depth for b, s, depth in preset_migration_depths()}
    ok = (
        table == _EXPECTED_PRESETS
        and migration_depth_for("LLaVA-1.5-7B") == 3
        and migration_depth_for("Video-LLaVA-7B") == 24
        and migration_depth_for("Unknown-1B") is None
    )
    return CheckResult(
        "preset_table", ok, f"{len(table)} published backbone -> depth pairs"
    )


def _determinism_config() -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(
            num_layers=3, hidden_dim=16, num_heads=2, mlp_dim=32,
            vocab_size=53, max_positions=24, master_seed=11,
        ),
        num_system=2,
        num_visual=8,
        num_question=4,
        saliency_source="toy",
        keep_count=3,
        schedule=ScheduleConfig(Strategy.PARVTS_BATCH, 2, 0.5, 0.5, 1),
        decode_steps=3,
        strategies=(
            Strategy.VANILLA,
            Strategy.PARVTS_BATCH,
            Strategy.PARVTS_MASKED,
            Strategy.SUBJECT_FIRST,
            Strategy.NONSUBJECT_FIRST,
        ),
    )


def check_report_determinism() -> CheckResult:
    config = _determinism_config()
    first = serialize_report(run_experiment(config))
    second = serialize_report(run_experiment(config))
    ok = first == second
    return CheckResult(
        "report_determinism", ok, "two identical runs serialize byte-identically"
    )


def _timed(compute):
    start = time.perf_counter()
    value = compute()
    return value, time.perf_counter() - start


def run_checks() -> list[CheckResult]:
    start = time.perf_counter()
    runs, sweep_seconds = _timed(lambda: [SweepRun(case) for case in sweep_cases()])
    setup = _reduction_setup()
    fit, fit_seconds = _timed(ratio_fit)
    results = [
        check_oracle_equivalence(runs),
        check_sweep_runtime(sweep_seconds),
        check_system_token_identity(runs),
        check_cross_mode_agreement(runs),
        check_reduction_chain(setup),
        check_kv_cache_pruning(setup),
        check_cost_identities(),
        check_cost_monotonicity(),
        check_reference_ratio_fit(fit),
        check_ratio_fit_runtime(fit_seconds),
        check_preset_table(),
        check_report_determinism(),
    ]
    elapsed = time.perf_counter() - start
    results.append(
        CheckResult(
            "total_runtime_under_60s",
            elapsed < 60.0,
            "yes" if elapsed < 60.0 else "no",
        )
    )
    return results


def render_results(results) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
