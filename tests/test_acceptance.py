"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the same checks back the `parvts verify` subcommand.
"""

import time

import numpy as np
import pytest

from parvts.cost import (
    CostParams,
    decoding_flops_parvts,
    decoding_flops_vanilla,
    migration_depth_for,
    preset_migration_depths,
    speedup_decoding,
    speedup_prefill,
)
from parvts.harness import compare_states, decode_after, run_experiment, serialize_report
from parvts.scheduler import ScheduleConfig, Strategy, run_strategy, run_vanilla
from parvts.saliency import partition_topk
from parvts.verify import (
    SweepRun,
    _determinism_config,
    _reduction_setup,
    ratio_fit,
    render_results,
    run_checks,
    sweep_cases,
)


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    runs = [SweepRun(case) for case in sweep_cases()]
    return runs, time.perf_counter() - start


def test_criterion_01_oracle_equivalence(sweep):
    runs, elapsed = sweep
    assert len(runs) >= 20
    assert {r.case.num_layers for r in runs} == {2, 4, 6}
    assert {r.case.hidden_dim for r in runs} == {16, 32, 64}
    assert {r.case.num_visual for r in runs} == {8, 16, 32}
    worst = 0.0
    for run in runs:
        np.testing.assert_array_equal(run.batch.positions, run.oracle.positions)
        max_abs = compare_states(run.batch.hidden, run.oracle.hidden)
        worst = max(worst, max_abs)
        assert max_abs <= 1e-6
    assert elapsed < 30.0
    print(f"PASS criterion 1: batch vs two-pass oracle, {len(runs)} configs, max |d| = {worst:.3e}")


def test_criterion_02_system_token_identity(sweep):
    runs, _ = sweep
    worst = 0.0
    for run in runs:
        for diff in run.batch.diagnostics["system_identity_max_diff"]:
            worst = max(worst, diff)
            assert diff <= 1e-12
    print(f"PASS criterion 2: branch system states identical, max |d| = {worst:.3e}")


def test_criterion_03_cross_mode_row_agreement(sweep):
    runs, _ = sweep
    worst_rows, worst_gap = 0.0, 0.0
    for run in runs:
        rows = compare_states(
            run.batch.diagnostics["retained_at_migration"],
            run.masked.diagnostics["retained_at_migration"],
        )
        assert rows <= 1e-9
        gap = compare_states(
            run.batch.diagnostics["question_at_migration"],
            run.masked.diagnostics["question_at_migration"],
        )
        assert np.isfinite(gap)
        worst_rows, worst_gap = max(worst_rows, rows), max(worst_gap, gap)
    print(
        "PASS criterion 3: masked/batch S and V_sub rows agree "
        f"(max |d| = {worst_rows:.3e}); question gap reported, up to {worst_gap:.3e}"
    )


def test_criterion_04_reduction_chain():
    model, layout, ids, saliency = _reduction_setup()
    vanilla = run_vanilla(model, ids, layout)
    num_layers = model.config.num_layers
    all_kept = partition_topk(saliency, layout.num_visual)
    none_kept = partition_topk(saliency, 0)
    reductions = [
        run_strategy(
            model, ids, layout, all_kept,
            ScheduleConfig(Strategy.PARVTS_BATCH, num_layers, 0.0, 1.0, 1),
        ),
        run_strategy(
            model, ids, layout, all_kept,
            ScheduleConfig(Strategy.PARVTS_MASKED, 1, 0.5, 0.5, 1),
        ),
        run_strategy(
            model, ids, layout, all_kept,
            ScheduleConfig(Strategy.SUBJECT_FIRST, num_layers, 0.5, 0.5, 1),
        ),
        run_strategy(
            model, ids, layout, none_kept,
            ScheduleConfig(Strategy.NONSUBJECT_FIRST, num_layers, 0.5, 0.5, 1),
        ),
    ]
    worst = 0.0
    for result in reductions:
        max_abs = compare_states(result.hidden, vanilla.hidden[result.positions])
        worst = max(worst, max_abs)
        assert max_abs <= 1e-9
    print(f"PASS criterion 4: four reductions reproduce vanilla, max |d| = {worst:.3e}")


def test_criterion_05_kv_cache_claim():
    model, layout, ids, saliency = _reduction_setup()
    decode_steps = 5
    num_system, num_question = 3, 5
    for keep in (0, 4, layout.num_visual):
        partition = partition_topk(saliency, keep)
        nonsubject = set(
            int(p) for p in layout.visual_span[0] + partition.nonsubject_indices
        )
        for strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED):
            cfg = ScheduleConfig(strategy, 2, 0.5, 0.5, 1)
            result = run_strategy(model, ids, layout, partition, cfg)
            decode_after(model, result, decode_steps)
            expected = num_system + keep + num_question + decode_steps
            assert result.cache.entry_counts() == [expected] * model.config.num_layers
            cached = set(int(p) for p in result.cache.all_positions())
            assert not cached & nonsubject
    print("PASS criterion 5: cache holds exactly |S|+k+|T|+M entries per layer, none non-subject")


def test_criterion_06_cost_model_identities():
    gen = np.random.Generator(np.random.Philox(key=[99, 0]))
    worst_rel = 0.0
    for _ in range(100):
        n_layers = int(gen.integers(1, 49))
        params = CostParams(
            p=float(gen.integers(0, 11)) / 10.0,
            n=int(gen.integers(1, n_layers + 1)),
            N=n_layers,
            L_text=int(gen.integers(0, 2049)),
            L_img=int(gen.integers(0, 2049)),
            M=int(gen.integers(1, 1001)),
            d=int(gen.integers(1, 513)),
            m=int(gen.integers(1, 2049)),
        )
        assert decoding_flops_vanilla(params, "stepwise") == decoding_flops_vanilla(params, "closed")
        ratio = decoding_flops_vanilla(params) / decoding_flops_parvts(params)
        rel = abs(speedup_decoding(params) - ratio) / ratio
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-12

    points = 0
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
                            points += 1
                            assert rho >= 1.0
                            boundary = p == 0.0 or n == 5 or L_img == 0
                            assert (rho == 1.0) == boundary
    assert points >= 1000
    print(
        "PASS criterion 6: stepwise = closed on 100 tuples, ratio identity rel err "
        f"{worst_rel:.3e}, rho_prefill >= 1 on {points}-point grid with exact boundary"
    )


def test_criterion_07_monotonicity():
    N = 6
    base = dict(N=N, L_text=16, L_img=48, d=32, m=64)
    for p in [i / 10.0 for i in range(1, 11)]:
        decs = [speedup_decoding(CostParams(p=p, n=1, M=M, **base)) for M in range(1, 65)]
        assert all(b < a for a, b in zip(decs, decs[1:]))
        for M in (1, 16, 64):
            by_n = [
                speedup_decoding(CostParams(p=p, n=n, M=M, **base))
                for n in range(1, N + 1)
            ]
            assert all(v == by_n[0] for v in by_n)
            pres = [
                speedup_prefill(CostParams(p=p, n=n, M=M, **base))
                for n in range(1, N + 1)
            ]
            assert all(b <= a for a, b in zip(pres, pres[1:]))
    for n in range(1, N + 1):
        pres = [
            speedup_prefill(CostParams(p=i / 10.0, n=n, M=16, **base))
            for i in range(1, 11)
        ]
        assert all(b >= a for a, b in zip(pres, pres[1:]))
    print(
        "PASS criterion 7: rho_decoding strictly decreasing in M and constant in n; "
        "rho_prefill non-increasing in n, non-decreasing in p"
    )


def test_criterion_08_reference_ratio_fit():
    start = time.perf_counter()
    best_l, ratios = ratio_fit()
    elapsed = time.perf_counter() - start
    targets = (44.34, 37.26, 30.31)
    assert 10 <= best_l <= 200
    assert ratios[0] > ratios[1] > ratios[2]
    for ratio, target in zip(ratios, targets):
        assert abs(ratio - target) <= 10.0
    assert elapsed < 1.0
    print(
        f"PASS criterion 8: prefill ratios at L_text={best_l} are "
        + ", ".join(f"{r:.2f}%" for r in ratios)
        + f" against {targets}, each within 10 points"
    )


def test_criterion_09_preset_fidelity():
    expected = {
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
    table = {(backbone, size): depth for backbone, size, depth in preset_migration_depths()}
    assert table == expected
    assert migration_depth_for("LLaVA-1.5-7B") == 3
    assert migration_depth_for("Video-LLaVA-7B") == 24
    assert migration_depth_for("Never-Published-1B") is None
    print(f"PASS criterion 9: preset table returns exactly the {len(expected)} published pairs")


def test_criterion_10_verify_determinism_and_runtime():
    start = time.perf_counter()
    first = render_results(run_checks())
    second = render_results(run_checks())
    elapsed = time.perf_counter() - start
    assert "FAIL" not in first
    assert first == second
    assert elapsed / 2 < 60.0
    lines = first.splitlines()
    assert lines[-1] == "13/13 checks passed"
    # each time budget is a line of its own, apart from the verdict it times
    for budget in ("sweep_runtime_under_30s", "reference_ratio_fit_under_1s",
                   "total_runtime_under_60s"):
        assert f"PASS {budget}: yes" in lines
    print("PASS criterion 10: verify output byte-identical across runs, under 60 s")


def test_report_determinism_invariant():
    config = _determinism_config()
    assert serialize_report(run_experiment(config)) == serialize_report(run_experiment(config))
