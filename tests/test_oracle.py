from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parvts.model import build_model, causal_mask, decode_step, ModelConfig, SequenceLayout, embed
from parvts.harness import seeded_inputs, synthesize_token_ids
from parvts.numerics import SOFTMAX_UNTILED_ROWS
from parvts.oracle import oracle_two_pass, reference_prefill, reference_run
from parvts.saliency import partition_topk, toy_cls_attention
from parvts.scheduler import (
    ScheduleConfig,
    Strategy,
    group_exclusive_mask,
    run_strategy,
    run_vanilla,
)


def setup():
    return seeded_inputs(
        ModelConfig(
            num_layers=4, hidden_dim=32, num_heads=4, mlp_dim=64,
            vocab_size=97, max_positions=48, master_seed=3,
        ),
        4, 16, 6,
    )


def test_reduces_to_vanilla():
    model, layout, ids, saliency = setup()
    all_kept = partition_topk(saliency, layout.num_visual)
    cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 4, 0.0, 1.0, 1)
    result = oracle_two_pass(model, ids, layout, all_kept, cfg)
    vanilla = run_vanilla(model, ids, layout)
    assert np.max(np.abs(result.hidden - vanilla.hidden)) <= 1e-9


def test_pure_function_repeatability():
    model, layout, ids, saliency = setup()
    partition = partition_topk(saliency, 6)
    cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 3, 0.5, 0.5, 1)
    first = oracle_two_pass(model, ids, layout, partition, cfg)
    second = oracle_two_pass(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(first.hidden, second.hidden)


def test_degenerate_partitions_collapse_like_scheduler():
    model, layout, ids, saliency = setup()
    for keep in (0, layout.num_visual):
        partition = partition_topk(saliency, keep)
        cfg = ScheduleConfig(Strategy.PARVTS_BATCH, 3, 0.5, 0.5, 1)
        reference = oracle_two_pass(model, ids, layout, partition, cfg)
        fast = run_strategy(model, ids, layout, partition, cfg)
        np.testing.assert_array_equal(reference.positions, fast.positions)
        assert np.max(np.abs(reference.hidden - fast.hidden)) <= 1e-6


def test_reference_prefill_is_causal():
    model, layout, ids, _ = setup()
    base = reference_prefill(model, ids[:6])
    extended = reference_prefill(model, np.concatenate([ids[:6], ids[6:8]]))
    # earlier rows are untouched by appended tokens
    assert np.max(np.abs(extended[:6] - base)) == 0.0


# Staged references for the strategies oracle_two_pass does not mirror. The
# layout has more rows than SOFTMAX_UNTILED_ROWS, so the masked phase and the
# non-subject stage take the row-tiled softmax.
STAGED_KEEP, STAGED_DEPTH = 16, 2


def staged_setup():
    model, layout, ids, saliency = seeded_inputs(
        ModelConfig(
            num_layers=4, hidden_dim=32, num_heads=2, mlp_dim=64,
            vocab_size=97, max_positions=256, master_seed=3,
        ),
        4, 200, 6,
    )
    assert layout.total_prefill > SOFTMAX_UNTILED_ROWS
    return model, layout, ids, partition_topk(saliency, STAGED_KEEP)


def staged_masked(model, ids, layout, partition, n, j):
    """(retained positions, final hidden) of ParVTSMasked, layer range by layer range."""
    pos = np.arange(ids.size)
    sub_pos = layout.visual_span[0] + partition.subject_indices
    non_pos = layout.visual_span[0] + partition.nonsubject_indices
    hidden = reference_run(model, embed(model, ids), pos, causal_mask(pos), 1, j)
    exclusive = group_exclusive_mask(pos, sub_pos, non_pos)
    hidden = reference_run(model, hidden, pos, exclusive, j + 1, n)
    keep = ~np.isin(pos, non_pos)
    keep_pos = pos[keep]
    last = model.config.num_layers
    return keep_pos, reference_run(model, hidden[keep], keep_pos, causal_mask(keep_pos), n + 1, last)


def staged_sequential(model, ids, layout, partition, n, strategy):
    """(stage-2 positions, final hidden) of SubjectFirst or NonSubjectFirst."""
    sys_pos, q_pos = layout.system_positions(), layout.question_positions()
    first = layout.visual_span[0] + partition.subject_indices
    second = layout.visual_span[0] + partition.nonsubject_indices
    if strategy is Strategy.NONSUBJECT_FIRST:
        first, second = second, first

    stage1 = np.concatenate([sys_pos, first, q_pos])
    h1 = reference_run(model, embed(model, ids[stage1]), stage1, causal_mask(stage1), 1, n)
    # ReplaceVision: the other group's embeddings take the visual slots
    stage2 = np.concatenate([sys_pos, second, q_pos])
    h2 = np.concatenate(
        [h1[: sys_pos.size], embed(model, ids[second]), h1[sys_pos.size + first.size :]]
    )
    last = model.config.num_layers
    return stage2, reference_run(model, h2, stage2, causal_mask(stage2), n + 1, last)


def test_masked_strategy_matches_staged_reference():
    model, layout, ids, partition = staged_setup()
    cfg = ScheduleConfig(Strategy.PARVTS_MASKED, STAGED_DEPTH, 0.5, 0.5, 1)
    keep_pos, expected = staged_masked(model, ids, layout, partition, STAGED_DEPTH, 1)
    fast = run_strategy(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(fast.positions, keep_pos)
    np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("strategy", [Strategy.SUBJECT_FIRST, Strategy.NONSUBJECT_FIRST])
def test_sequential_strategies_match_staged_reference(strategy):
    model, layout, ids, partition = staged_setup()
    cfg = ScheduleConfig(strategy, STAGED_DEPTH)
    stage2, expected = staged_sequential(model, ids, layout, partition, STAGED_DEPTH, strategy)
    fast = run_strategy(model, ids, layout, partition, cfg)
    np.testing.assert_array_equal(fast.positions, stage2)
    np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=1e-12)


# Edge layouts: |S| system, |V| visual and |T| question tokens, k of the
# visual tokens kept, N layers, migration depth n and a joint prefix of j.
class Edge(NamedTuple):
    system: int
    visual: int
    question: int
    keep: int
    layers: int
    n: int
    j: int


EDGE_MODELS = {
    layers: build_model(ModelConfig(layers, 16, 2, 32, 53, 32, 11)) for layers in (1, 2, 3)
}


@st.composite
def edges(draw):
    layers = draw(st.integers(1, 3))
    n = draw(st.integers(1, layers))
    visual = draw(st.integers(1, 8))
    return Edge(
        system=draw(st.integers(0, 3)), visual=visual, question=draw(st.integers(1, 3)),
        keep=draw(st.integers(0, visual)), layers=layers, n=n, j=draw(st.integers(0, n)),
    )


@settings(deadline=None, max_examples=50)
@given(edges())
@example(Edge(system=0, visual=5, question=2, keep=2, layers=3, n=2, j=1))  # |S| = 0
@example(Edge(system=2, visual=5, question=1, keep=2, layers=3, n=2, j=1))  # |T| = 1
@example(Edge(system=2, visual=5, question=2, keep=0, layers=3, n=2, j=1))  # k = 0
@example(Edge(system=2, visual=5, question=2, keep=5, layers=3, n=2, j=1))  # k = |V|
@example(Edge(system=2, visual=5, question=2, keep=2, layers=3, n=2, j=0))  # j = 0
@example(Edge(system=2, visual=5, question=2, keep=2, layers=3, n=3, j=1))  # n = N
@example(Edge(system=0, visual=1, question=1, keep=0, layers=1, n=1, j=0))  # all at once
def test_strategies_match_references_on_edge_layouts(edge):
    model = EDGE_MODELS[edge.layers]
    layout = SequenceLayout.from_counts(edge.system, edge.visual, edge.question)
    ids = synthesize_token_ids(model.config, layout.total_prefill)
    lo, hi = layout.visual_span
    partition = partition_topk(toy_cls_attention(embed(model, ids[lo:hi]), 11), edge.keep)
    non_pos = lo + partition.nonsubject_indices

    for strategy in list(Strategy)[1:]:
        cfg = ScheduleConfig(strategy, edge.n, 0.5, 0.5, edge.j)
        fast = run_strategy(model, ids, layout, partition, cfg)
        if strategy is Strategy.PARVTS_BATCH:
            reference = oracle_two_pass(model, ids, layout, partition, cfg)
            positions, expected, atol = reference.positions, reference.hidden, 1e-6
        elif strategy is Strategy.PARVTS_MASKED:
            positions, expected = staged_masked(model, ids, layout, partition, edge.n, edge.j)
            atol = 1e-12
        else:
            positions, expected = staged_sequential(
                model, ids, layout, partition, edge.n, strategy
            )
            atol = 1e-12
        np.testing.assert_array_equal(fast.positions, positions)
        np.testing.assert_allclose(fast.hidden, expected, rtol=0, atol=atol)

        # the sequential schedules cache the second group's positions after layer n
        pruned = non_pos if strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED) else ()
        fast.cache.check_invariants(pruned=pruned)
        logits = decode_step(model, fast.cache, int(ids[-1]), layout.output_start)
        assert np.all(np.isfinite(logits))
