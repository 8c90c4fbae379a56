from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parvts.errors import InvalidArgumentError
from parvts.harness import decode_after, seeded_inputs
from parvts.model import (
    ModelConfig,
    SequenceLayout,
    causal_mask,
    decode_step,
    embed,
    output_logits,
    run_layers,
)
from parvts.numerics import RngState, rms_norm_rows, rope_rotate_heads, seeded_uniform
from parvts.oracle import oracle_two_pass
from parvts.saliency import Partition, partition_topk
from parvts.scheduler import (
    PrefillResult,
    ScheduleConfig,
    Strategy,
    fuse_question_states,
    group_exclusive_mask,
    prune_cache,
    row_groups,
    run_strategy,
    run_vanilla,
)


def make_setup(num_layers=4, hidden_dim=32, num_visual=16, keep=6, seed=3):
    model, layout, ids, saliency = seeded_inputs(
        ModelConfig(
            num_layers=num_layers,
            hidden_dim=hidden_dim,
            num_heads=4,
            mlp_dim=2 * hidden_dim,
            vocab_size=97,
            max_positions=64,
            master_seed=seed,
        ),
        4, num_visual, 6,
    )
    partition = partition_topk(saliency, keep)
    return model, layout, ids, partition


def positions_of(layout, indices):
    """Sequence positions of the given visual-token indices."""
    return layout.visual_span[0] + indices


def batch_cfg(n, alpha=0.5, beta=0.5, j=1):
    return ScheduleConfig(Strategy.PARVTS_BATCH, n, alpha, beta, j)


class TestVanilla:
    def test_equals_run_layers_definition(self):
        model, layout, ids, _ = make_setup()
        result = run_vanilla(model, ids, layout)
        pos = np.arange(layout.output_start)
        direct = run_layers(
            model, embed(model, ids), pos, (1, 4), causal_mask(pos)
        )
        np.testing.assert_array_equal(result.hidden, direct)

    def test_full_cache(self):
        model, layout, ids, _ = make_setup()
        result = run_vanilla(model, ids, layout)
        assert result.cache.entry_counts() == [layout.output_start] * 4

    def test_matches_naive_reference(self):
        from parvts.oracle import reference_prefill

        model, layout, ids, _ = make_setup(num_layers=2, hidden_dim=16, num_visual=4, keep=2)
        result = run_vanilla(model, ids, layout)
        np.testing.assert_allclose(
            result.hidden, reference_prefill(model, ids), atol=1e-9
        )

    def test_wrong_length_rejected(self):
        model, layout, ids, _ = make_setup()
        with pytest.raises(InvalidArgumentError):
            run_vanilla(model, ids[:-1], layout)


class TestParvtsBatch:
    def test_beta_one_fuses_to_subject_branch_exactly(self):
        model, layout, ids, partition = make_setup()
        n, j = 3, 1
        result = run_strategy(model, ids, layout, partition, batch_cfg(n, 0.0, 1.0, j))

        # independent replay of the subject branch
        full_pos = np.arange(layout.output_start)
        joint = run_layers(
            model, embed(model, ids), full_pos, (1, j), causal_mask(full_pos)
        )
        pos_sub = np.concatenate(
            [layout.system_positions(), positions_of(layout, partition.subject_indices),
             layout.question_positions()]
        )
        h_sub = run_layers(
            model, joint[pos_sub], pos_sub, (j + 1, n), causal_mask(pos_sub)
        )
        np.testing.assert_array_equal(
            result.diagnostics["question_at_migration"], h_sub[-6:]
        )

    def test_reduction_to_vanilla(self):
        model, layout, ids, _ = make_setup()
        all_kept = Partition(np.zeros(layout.num_visual, dtype=np.int64))
        result = run_strategy(model, ids, layout, all_kept, batch_cfg(4, 0.0, 1.0))
        vanilla = run_vanilla(model, ids, layout)
        assert np.max(np.abs(result.hidden - vanilla.hidden)) <= 1e-9

    def test_matches_two_pass_oracle(self):
        model, layout, ids, partition = make_setup()
        cfg = batch_cfg(3)
        result = run_strategy(model, ids, layout, partition, cfg)
        reference = oracle_two_pass(model, ids, layout, partition, cfg)
        np.testing.assert_array_equal(result.positions, reference.positions)
        assert np.max(np.abs(result.hidden - reference.hidden)) <= 1e-6

    def test_system_identity_across_branches(self):
        model, layout, ids, partition = make_setup(num_layers=6)
        result = run_strategy(model, ids, layout, partition, batch_cfg(5))
        diffs = result.diagnostics["system_identity_max_diff"]
        assert len(diffs) == 4  # layers j+1..n
        assert max(diffs) <= 1e-12

    def test_active_rows_after_migration(self):
        model, layout, ids, partition = make_setup(keep=6)
        result = run_strategy(model, ids, layout, partition, batch_cfg(2))
        assert result.positions.size == 4 + 6 + 6
        assert result.hidden.shape[0] == 4 + 6 + 6

    def test_no_nonsubject_cache_entries(self):
        model, layout, ids, partition = make_setup()
        result = run_strategy(model, ids, layout, partition, batch_cfg(3))
        cached = set(int(p) for p in result.cache.all_positions())
        dropped = set(int(p) for p in positions_of(layout, partition.nonsubject_indices))
        assert not cached & dropped
        assert result.cache.entry_counts() == [4 + 6 + 6] * 4

    def test_empty_subject_collapses(self):
        model, layout, ids, none_kept = make_setup(keep=0)
        result = run_strategy(model, ids, layout, none_kept, batch_cfg(2))
        assert result.positions.size == 4 + 6
        assert result.cache.entry_counts() == [10] * 4

    @pytest.mark.parametrize("keep", [0, 16])
    @pytest.mark.parametrize("n, j", [(1, 0), (2, 1), (3, 3), (4, 2)])
    def test_empty_group_is_a_causal_run_with_a_drop_at_n(self, keep, n, j):
        # with one group empty, both ParVTS modes are: every row causal
        # through layer n, then drop the non-subject rows and continue
        model, layout, ids, partition = make_setup(keep=keep)
        pos = np.arange(layout.output_start)
        hidden = run_layers(model, embed(model, ids), pos, (1, n), causal_mask(pos))
        kept = ~np.isin(pos, positions_of(layout, partition.nonsubject_indices))
        expected = run_layers(
            model, hidden[kept], pos[kept], (n + 1, 4), causal_mask(pos[kept])
        )
        caches = []
        for strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED):
            cfg = ScheduleConfig(strategy, n, 0.5, 0.5, j)
            result = run_strategy(model, ids, layout, partition, cfg)
            caches.append(result.cache)
            assert np.array_equal(result.hidden, expected)
            assert np.array_equal(result.positions, pos[kept])
            assert result.cache.entry_counts() == [int(kept.sum())] * 4
            np.testing.assert_array_equal(
                result.diagnostics["question_at_migration"], hidden[-6:]
            )
            diffs = result.diagnostics.get("system_identity_max_diff")
            assert diffs == ([] if strategy is Strategy.PARVTS_BATCH else None)
        batch, masked = caches
        for layer in range(4):
            for part in ("positions", "keys", "values"):
                assert np.array_equal(getattr(batch, part)(layer), getattr(masked, part)(layer))


class TestParvtsMasked:
    def masked_cfg(self, n, j=1):
        return ScheduleConfig(Strategy.PARVTS_MASKED, n, 0.5, 0.5, j)

    def test_retained_rows_match_batch_mode(self):
        model, layout, ids, partition = make_setup()
        batch = run_strategy(model, ids, layout, partition, batch_cfg(3))
        masked = run_strategy(model, ids, layout, partition, self.masked_cfg(3))
        diff = np.max(
            np.abs(
                batch.diagnostics["retained_at_migration"]
                - masked.diagnostics["retained_at_migration"]
            )
        )
        assert diff <= 1e-9

    def test_question_gap_reported_not_zero_asserted(self):
        model, layout, ids, partition = make_setup()
        batch = run_strategy(model, ids, layout, partition, batch_cfg(3))
        masked = run_strategy(model, ids, layout, partition, self.masked_cfg(3))
        gap = np.max(
            np.abs(
                batch.diagnostics["question_at_migration"]
                - masked.diagnostics["question_at_migration"]
            )
        )
        assert np.isfinite(gap)

    def test_degenerate_mask_equals_vanilla_exactly(self):
        model, layout, ids, all_kept = make_setup(keep=16)
        result = run_strategy(
            model, ids, layout, all_kept, self.masked_cfg(n=1, j=1)
        )
        vanilla = run_vanilla(model, ids, layout)
        np.testing.assert_array_equal(result.hidden, vanilla.hidden)

    def test_cache_counts_after_prefill(self):
        model, layout, ids, partition = make_setup(keep=5)
        result = run_strategy(model, ids, layout, partition, self.masked_cfg(2))
        assert result.cache.entry_counts() == [4 + 5 + 6] * 4

    def test_exclusive_mask_blocks_both_directions(self):
        positions = np.arange(6)
        mask = group_exclusive_mask(positions, np.array([-1, 0, 0, 1, 1, -1]))
        assert not mask[3, 1] and not mask[4, 2]  # non -> sub blocked
        assert not mask[2, 3] and mask[2, 1]      # sub -> non blocked (causal anyway)
        assert mask[5, 1] and mask[5, 3]          # question sees both groups
        assert mask[3, 0] and mask[1, 0]          # both groups see earlier rows

    def test_exclusive_mask_needs_one_label_per_row(self):
        with pytest.raises(InvalidArgumentError, match="^1 group labels for 6 rows$"):
            group_exclusive_mask(np.arange(6), np.array([0]))

    def test_row_groups_labels_visual_rows_only(self):
        layout = SequenceLayout(2, 4, 3)
        groups = row_groups(layout, Partition(np.array([1, 0, 0, 1])))
        np.testing.assert_array_equal(groups, [-1, -1, 1, 0, 0, 1, -1, -1, -1])


class TestSequentialSchedules:
    def test_swapped_rows_equal_embeddings_exactly(self):
        model, layout, ids, partition = make_setup()
        cfg = ScheduleConfig(Strategy.SUBJECT_FIRST, 4, 0.5, 0.5, 1)
        result = run_strategy(model, ids, layout, partition, cfg)
        non_pos = positions_of(layout, partition.nonsubject_indices)
        swapped = result.hidden[4 : 4 + non_pos.size]
        np.testing.assert_array_equal(swapped, embed(model, ids[non_pos]))

    def test_system_question_rows_persist_across_swap(self):
        model, layout, ids, partition = make_setup()
        cfg = ScheduleConfig(Strategy.SUBJECT_FIRST, 4, 0.5, 0.5, 1)
        result = run_strategy(model, ids, layout, partition, cfg)
        np.testing.assert_array_equal(
            result.hidden[:4], result.diagnostics["retained_at_migration"][:4]
        )
        np.testing.assert_array_equal(
            result.hidden[-6:], result.diagnostics["question_at_migration"]
        )

    def test_empty_swap_stage_well_defined(self):
        model, layout, ids, all_kept = make_setup(keep=16)
        cfg = ScheduleConfig(Strategy.SUBJECT_FIRST, 2, 0.5, 0.5, 1)
        result = run_strategy(model, ids, layout, all_kept, cfg)
        assert result.positions.size == 4 + 6
        assert np.all(np.isfinite(result.hidden))

    def test_mirror_symmetry(self):
        model, layout, ids, partition = make_setup()
        cfg_a = ScheduleConfig(Strategy.SUBJECT_FIRST, 3, 0.5, 0.5, 1)
        cfg_b = ScheduleConfig(Strategy.NONSUBJECT_FIRST, 3, 0.5, 0.5, 1)
        swapped = Partition(1 - partition.groups)
        a = run_strategy(model, ids, layout, swapped, cfg_a)
        b = run_strategy(model, ids, layout, partition, cfg_b)
        np.testing.assert_array_equal(a.hidden, b.hidden)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_nonsubject_first_reduction_to_vanilla(self):
        model, layout, ids, none_kept = make_setup(keep=0)
        cfg = ScheduleConfig(Strategy.NONSUBJECT_FIRST, 4, 0.5, 0.5, 1)
        result = run_strategy(model, ids, layout, none_kept, cfg)
        vanilla = run_vanilla(model, ids, layout)
        assert np.max(np.abs(result.hidden - vanilla.hidden[result.positions])) <= 1e-9


class TestFusion:
    def test_arithmetic(self):
        out = fuse_question_states([[2.0, 4.0]], [[0.0, 0.0]], 0.5, 0.5)
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_fixed_point_when_equal(self):
        t = seeded_uniform(RngState(1), 3, 4, 1.0)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            np.testing.assert_allclose(
                fuse_question_states(t, t, alpha, 1.0 - alpha), t, atol=1e-15
            )

    def test_alpha_one_returns_first_bitwise(self):
        t_non = seeded_uniform(RngState(2), 2, 3, 1.0)
        t_sub = seeded_uniform(RngState(3), 2, 3, 1.0)
        np.testing.assert_array_equal(
            fuse_question_states(t_non, t_sub, 1.0, 0.0), t_non
        )

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            fuse_question_states(np.ones((2, 2)), np.ones((2, 3)), 0.5, 0.5)

    def test_weights_must_be_convex(self):
        t = np.ones((1, 2))
        nan = float("nan")
        for alpha, beta in ((0.7, 0.7), (-0.5, 1.5), (nan, 0.5), (0.5, nan)):
            with pytest.raises(InvalidArgumentError, match="must be >= 0 and sum to 1"):
                fuse_question_states(t, t, alpha, beta)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**16 - 1), st.floats(0.1, 100.0), st.floats(0.0, 1.0))
    def test_scaling_preserves_argmax(self, seed, scale, alpha):
        rng = RngState(seed)
        t_non = seeded_uniform(rng, 3, 5, 1.0)
        t_sub = seeded_uniform(rng, 3, 5, 1.0)
        base = fuse_question_states(t_non, t_sub, alpha, 1.0 - alpha)
        scaled = fuse_question_states(scale * t_non, scale * t_sub, alpha, 1.0 - alpha)
        np.testing.assert_array_equal(
            np.argmax(base, axis=1), np.argmax(scaled, axis=1)
        )


class TestPruneCache:
    def test_empty_drop_is_identity(self):
        model, layout, ids, _ = make_setup()
        cache = run_vanilla(model, ids, layout).cache
        pruned = prune_cache(cache, [])
        assert pruned.entry_counts() == cache.entry_counts()
        for layer in range(4):
            np.testing.assert_array_equal(
                pruned.positions(layer), cache.positions(layer)
            )

    def test_drop_all_visual(self):
        model, layout, ids, _ = make_setup()
        cache = run_vanilla(model, ids, layout).cache
        pruned = prune_cache(cache, layout.visual_positions())
        expected = layout.output_start - layout.num_visual
        assert pruned.entry_counts() == [expected] * 4

    def test_unknown_position_rejected(self):
        model, layout, ids, _ = make_setup()
        cache = run_vanilla(model, ids, layout).cache
        with pytest.raises(InvalidArgumentError):
            prune_cache(cache, [999])

    def test_unknown_positions_listed_sorted(self):
        model, layout, ids, _ = make_setup()
        cache = run_vanilla(model, ids, layout).cache
        with pytest.raises(InvalidArgumentError) as info:
            prune_cache(cache, [999, 3, 500, 1])
        assert str(info.value) == "positions not present in cache: [500, 999]"

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_invariants_hold_after_prefill_and_decode(self, strategy):
        model, layout, ids, partition = make_setup()
        cfg = ScheduleConfig(strategy, 2, 0.5, 0.5, 1)
        result = run_strategy(model, ids, layout, partition, cfg)
        # sequential schedules cache each visual group in some layers, so
        # only the parallel ones have positions pruned from every layer
        parallel = strategy in (Strategy.PARVTS_BATCH, Strategy.PARVTS_MASKED)
        pruned = positions_of(layout, partition.nonsubject_indices) if parallel else ()
        result.cache.check_invariants(pruned)
        decode_after(model, result, 12)
        result.cache.check_invariants(pruned)
        if parallel:
            sub_pos = positions_of(layout, partition.subject_indices)
            with pytest.raises(InvalidArgumentError, match="layer 0: pruned position cached"):
                result.cache.check_invariants(sub_pos)

    def test_decode_equals_mask_blocked_forward(self):
        model, layout, ids, _ = make_setup(num_layers=3, hidden_dim=16, num_visual=8)
        cache = run_vanilla(model, ids, layout).cache
        drop = layout.visual_positions()[1::2]
        pruned = prune_cache(cache, drop)
        token, position = 11, layout.output_start
        got = decode_step(model, pruned, token, position)
        expected = _masked_decode_reference(model, cache, token, position, set(int(p) for p in drop))
        np.testing.assert_allclose(got, expected, atol=1e-9)


def _masked_decode_reference(model, cache, token_id, position, blocked):
    """One decode step over the full cache with `blocked` positions masked out."""
    cfg = model.config
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    h = embed(model, [token_id])
    pos_arr = np.array([position])
    for layer_index in range(cfg.num_layers):
        lw = model.layers[layer_index]
        normed = rms_norm_rows(h, lw.attn_gain)
        q = rope_rotate_heads((normed @ lw.w_q).reshape(1, nh, dh), pos_arr)
        k_self = rope_rotate_heads((normed @ lw.w_k).reshape(1, nh, dh), pos_arr)
        v_self = (normed @ lw.w_v).reshape(1, nh, dh)
        keys = np.concatenate([cache.keys(layer_index), k_self])
        values = np.concatenate([cache.values(layer_index), v_self])
        allowed = np.array(
            [int(p) not in blocked for p in cache.positions(layer_index)] + [True]
        )
        ctx = np.empty((1, nh, dh))
        for head in range(nh):
            scores = (q[0, head] @ keys[:, head, :].T) * scale
            scores = np.where(allowed, scores, -np.inf)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            ctx[0, head] = weights @ values[:, head, :]
        h = h + ctx.reshape(1, nh * dh) @ lw.w_o
        normed = rms_norm_rows(h, lw.mlp_gain)
        gate = normed @ lw.w_gate
        h = h + (gate / (1.0 + np.exp(-gate)) * (normed @ lw.w_up)) @ lw.w_down
    return output_logits(model, h)[0]


class TestScheduleConfig:
    def test_depth_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            batch_cfg(5).validate(4)

    def test_joint_prefix_beyond_depth(self):
        with pytest.raises(InvalidArgumentError):
            batch_cfg(2, j=3).validate(4)

    def test_joint_prefix_may_equal_depth(self):
        batch_cfg(2, j=2).validate(4)

    def test_weights_validated(self):
        with pytest.raises(InvalidArgumentError):
            batch_cfg(2, alpha=0.6, beta=0.6).validate(4)

    def test_dispatcher_routes_all_strategies(self):
        model, layout, ids, partition = make_setup()
        for strategy in Strategy:
            cfg = ScheduleConfig(strategy, 2, 0.5, 0.5, 1)
            result = run_strategy(model, ids, layout, partition, cfg)
            assert isinstance(result, PrefillResult)

    # fault -> (change to (token ids, partition, cfg), start of the error message)
    BAD_INPUTS = {
        "token_count": (lambda ids, part, cfg: (ids[:-1], part, cfg), "25 token ids"),
        "partition_span": (
            lambda ids, part, cfg: (ids, Partition(np.repeat([0, 1], [3, 5])), cfg),
            "partition size",
        ),
        "depth_0": (lambda ids, part, cfg: (ids, part, replace(cfg, migration_depth=0)),
                    "migration_depth 0"),
        "depth_N_plus_1": (lambda ids, part, cfg: (ids, part, replace(cfg, migration_depth=5)),
                           "migration_depth 5"),
        "joint_prefix_past_depth": (
            lambda ids, part, cfg: (ids, part, replace(cfg, joint_prefix_layers=3)),
            "joint_prefix_layers 3",
        ),
        "weights_not_convex": (lambda ids, part, cfg: (ids, part, replace(cfg, alpha=0.6)),
                               "alpha 0.6"),
    }

    @pytest.mark.parametrize("fault", BAD_INPUTS)
    @pytest.mark.parametrize("strategy", Strategy)
    def test_run_strategy_validates_every_schedule(self, strategy, fault):
        model, layout, ids, partition = make_setup()
        change, message = self.BAD_INPUTS[fault]
        token_ids, part, cfg = change(ids, partition, ScheduleConfig(strategy, 2, 0.5, 0.5, 1))
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            run_strategy(model, token_ids, layout, part, cfg)

    # Vanilla runs without a partition, so this case is not in BAD_INPUTS
    @pytest.mark.parametrize("strategy", list(Strategy)[1:])
    def test_missing_partition_names_the_strategy(self, strategy):
        model, layout, ids, _ = make_setup()
        cfg = ScheduleConfig(strategy, 2, 0.5, 0.5, 1)
        with pytest.raises(InvalidArgumentError, match=f"^{strategy.value} needs a partition"):
            run_strategy(model, ids, layout, None, cfg)

    def test_vanilla_runs_without_a_partition(self):
        model, layout, ids, _ = make_setup()
        result = run_strategy(model, ids, layout, None, ScheduleConfig(Strategy.VANILLA, 2))
        np.testing.assert_array_equal(result.hidden, run_vanilla(model, ids, layout).hidden)


class TestOnePrefillPath:
    # case -> (strategy, keep count); None runs run_vanilla
    CASES = {
        **{s.value: (s, 6) for s in Strategy},
        "ParVTSBatch_keep_0": (Strategy.PARVTS_BATCH, 0),
        "ParVTSBatch_keep_all": (Strategy.PARVTS_BATCH, 16),
        "run_vanilla": (None, 6),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_each_prefill_embeds_every_id_once(self, case, monkeypatch):
        import parvts.scheduler as scheduler

        strategy, keep = self.CASES[case]
        model, layout, ids, partition = make_setup(keep=keep)
        embedded = []

        def counting_embed(model, token_ids):
            embedded.append(np.array(token_ids))
            return embed(model, token_ids)

        monkeypatch.setattr(scheduler, "embed", counting_embed)
        if strategy is None:
            run_vanilla(model, ids, layout)
        else:
            run_strategy(model, ids, layout, partition, ScheduleConfig(strategy, 2, 0.5, 0.5, 1))
        assert len(embedded) == 1
        assert embedded[0].size == layout.output_start
        np.testing.assert_array_equal(embedded[0], ids)

    # case -> (strategy, keep count, n, j, phase_token_counts); 4 system,
    # 16 visual and 6 question rows, so L = 26 and N = 4
    PHASES = {
        "Vanilla": (Strategy.VANILLA, 6, 3, 1, {"full": 26}),
        "ParVTSBatch": (Strategy.PARVTS_BATCH, 6, 3, 1, {
            "joint_prefix": 26, "branch_nonsubject": 20, "branch_subject": 16,
            "continuation": 16,
        }),
        "ParVTSBatch_j_0": (Strategy.PARVTS_BATCH, 6, 3, 0, {
            "branch_nonsubject": 20, "branch_subject": 16, "continuation": 16,
        }),
        "ParVTSBatch_keep_0": (Strategy.PARVTS_BATCH, 0, 3, 1, {
            "joint_prefix": 26, "exclusive_mask": 26, "continuation": 10,
        }),
        "ParVTSBatch_keep_all": (Strategy.PARVTS_BATCH, 16, 3, 1, {
            "joint_prefix": 26, "exclusive_mask": 26, "continuation": 26,
        }),
        "ParVTSBatch_keep_0_j_n": (Strategy.PARVTS_BATCH, 0, 3, 3, {
            "joint_prefix": 26, "continuation": 10,
        }),
        "ParVTSMasked": (Strategy.PARVTS_MASKED, 6, 3, 1, {
            "joint_prefix": 26, "exclusive_mask": 26, "continuation": 16,
        }),
        "ParVTSMasked_j_n": (Strategy.PARVTS_MASKED, 6, 3, 3, {
            "joint_prefix": 26, "continuation": 16,
        }),
        "SubjectFirst": (Strategy.SUBJECT_FIRST, 6, 3, 1, {
            "subject_stage": 16, "nonsubject_stage": 20,
        }),
        "NonSubjectFirst": (Strategy.NONSUBJECT_FIRST, 6, 3, 1, {
            "nonsubject_stage": 20, "subject_stage": 16,
        }),
    }

    @pytest.mark.parametrize("case", PHASES)
    def test_phase_token_counts_are_pinned(self, case):
        # the bench sums executed row-layers from these phase names
        strategy, keep, n, j, expected = self.PHASES[case]
        model, layout, ids, partition = make_setup(keep=keep)
        cfg = ScheduleConfig(strategy, n, 0.5, 0.5, j)
        result = run_strategy(model, ids, layout, partition, cfg)
        assert list(result.phase_token_counts.items()) == list(expected.items())

    @pytest.mark.parametrize("case", PHASES)
    def test_the_plan_is_what_runs(self, case, monkeypatch):
        import parvts.scheduler as scheduler

        strategy, keep, n, j, _ = self.PHASES[case]
        model, layout, ids, partition = make_setup(keep=keep)
        cfg = ScheduleConfig(strategy, n, 0.5, 0.5, j)
        calls = []  # (rows, layer range, cache passed) of each run_layers call

        def recording_run_layers(model, hidden, positions, layer_range, mask, cache=None):
            calls.append((hidden.shape[0], tuple(layer_range), cache is not None))
            return run_layers(model, hidden, positions, layer_range, mask, cache)

        monkeypatch.setattr(scheduler, "run_layers", recording_run_layers)
        run_strategy(model, ids, layout, partition, cfg)
        groups = row_groups(layout, partition)
        expected, pending = [], None
        for step in scheduler._plan(cfg, partition, model.config.num_layers):
            rows = groups.size if step.omit is None else int(np.sum(groups != step.omit))
            if step.branch:
                pending = rows
            elif pending is not None:  # the branch pair, one layer per call
                for layer in range(step.layers[0], step.layers[1] + 1):
                    expected += [(pending, (layer, layer), False), (rows, (layer, layer), True)]
                pending = None
            else:
                expected.append((rows, step.layers, True))
        assert calls == expected

    def test_vanilla_is_a_runner_like_the_others(self):
        model, layout, ids, partition = make_setup()
        direct = run_vanilla(model, ids, layout)
        routed = run_strategy(model, ids, layout, partition, ScheduleConfig(Strategy.VANILLA, 2))
        assert np.array_equal(direct.hidden, routed.hidden)
        assert np.array_equal(direct.positions, routed.positions)
        assert direct.phase_token_counts == routed.phase_token_counts
        for layer in range(model.config.num_layers):
            for part in ("positions", "keys", "values"):
                assert np.array_equal(
                    getattr(direct.cache, part)(layer), getattr(routed.cache, part)(layer)
                )


def replay(model, ids, layout, partition, cfg):
    """Each schedule rebuilt from public calls: (hidden, positions, cache, diagnostics, counts)."""
    N, n, j = model.config.num_layers, cfg.migration_depth, cfg.joint_prefix_layers
    num_sys, num_q = layout.num_system, layout.num_question
    h0 = embed(model, ids)
    every = np.arange(layout.output_start)
    cache = model.new_cache()
    if cfg.strategy is Strategy.VANILLA:
        hidden = run_layers(model, h0, every, (1, N), causal_mask(every), cache)
        return hidden, every, cache, {}, {"full": every.size}

    def at_migration(h):
        # split by count: with no question rows h[-0:] would take every row
        split = h.shape[0] - num_q
        return {"question_at_migration": h[split:], "retained_at_migration": h[:split]}

    groups = row_groups(layout, partition)
    sub, non = np.flatnonzero(groups != 1), np.flatnonzero(groups != 0)
    if cfg.strategy in (Strategy.SUBJECT_FIRST, Strategy.NONSUBJECT_FIRST):
        stages = [("subject_stage", sub), ("nonsubject_stage", non)]
        if cfg.strategy is Strategy.NONSUBJECT_FIRST:
            stages.reverse()
        (name1, rows1), (name2, rows2) = stages
        h1 = run_layers(model, h0[rows1], rows1, (1, n), causal_mask(rows1), cache)
        h2 = h0[rows2]
        h2[groups[rows2] == -1] = h1[groups[rows1] == -1]  # system and question carry over
        hidden = run_layers(model, h2, rows2, (n + 1, N), causal_mask(rows2), cache)
        return hidden, rows2, cache, at_migration(h1), {name1: rows1.size, name2: rows2.size}

    counts, diagnostics, h = {}, {}, h0
    if j >= 1:
        h = run_layers(model, h, every, (1, j), causal_mask(every), cache)
        counts["joint_prefix"] = every.size
    if cfg.strategy is Strategy.PARVTS_BATCH:
        diagnostics["system_identity_max_diff"] = []
    if cfg.strategy is Strategy.PARVTS_BATCH and 0 < partition.keep_count < partition.num_visual:
        h_sub, h_non = h[sub], h[non]
        for layer in range(j + 1, n + 1):
            h_non = run_layers(model, h_non, non, (layer, layer), causal_mask(non))
            h_sub = run_layers(model, h_sub, sub, (layer, layer), causal_mask(sub), cache)
            if num_sys:
                diff = np.max(np.abs(h_non[:num_sys] - h_sub[:num_sys]))
                diagnostics["system_identity_max_diff"].append(float(diff))
        counts["branch_nonsubject"], counts["branch_subject"] = non.size, sub.size
        q_sub, q_non = sub.size - num_q, non.size - num_q
        h_sub[q_sub:] = fuse_question_states(h_non[q_non:], h_sub[q_sub:], cfg.alpha, cfg.beta)
    else:
        if n > j:
            h = run_layers(model, h, every, (j + 1, n), group_exclusive_mask(every, groups), cache)
            counts["exclusive_mask"] = every.size
        h_sub = h[sub]
    if partition.keep_count < partition.num_visual:
        cache = cache.drop_positions(np.flatnonzero(groups == 1))
    diagnostics.update(at_migration(h_sub))
    hidden = run_layers(model, h_sub, sub, (n + 1, N), causal_mask(sub), cache)
    counts["continuation"] = sub.size
    return hidden, sub, cache, diagnostics, counts


def assert_replayed(model, ids, layout, partition, cfg):
    result = run_strategy(model, ids, layout, partition, cfg)
    hidden, positions, cache, diagnostics, counts = replay(model, ids, layout, partition, cfg)
    assert np.array_equal(result.hidden, hidden)
    assert np.array_equal(result.positions, positions)
    for layer in range(model.config.num_layers):
        for part in ("positions", "keys", "values"):
            assert np.array_equal(getattr(result.cache, part)(layer), getattr(cache, part)(layer))
    assert list(result.diagnostics) == list(diagnostics)
    for key, value in diagnostics.items():
        assert np.array_equal(result.diagnostics[key], value)
    assert list(result.phase_token_counts.items()) == list(counts.items())


class TestPublicCallReplay:
    @pytest.mark.parametrize("case", TestOnePrefillPath.PHASES)
    def test_pinned_phase_cases(self, case):
        strategy, keep, n, j, _ = TestOnePrefillPath.PHASES[case]
        model, layout, ids, partition = make_setup(keep=keep)
        assert_replayed(model, ids, layout, partition, ScheduleConfig(strategy, n, 0.3, 0.7, j))

    # layers, n, j, system, visual, question rows, keep; n, j and keep are
    # clamped to their ranges, so the sweep often lands on n = N, j = n, k = |V|
    EDGES = dict(num_layers=st.integers(1, 3), n=st.integers(1, 3), j=st.integers(0, 3),
                 num_system=st.integers(0, 2), num_visual=st.integers(1, 6),
                 num_question=st.integers(0, 2), keep=st.integers(0, 6),
                 strategy=st.sampled_from(Strategy), seed=st.integers(0, 99))

    @settings(deadline=None, max_examples=30)
    @given(**EDGES)
    @example(3, 3, 0, 0, 5, 1, 0, Strategy.PARVTS_BATCH, 1)      # no system, k = 0, j = 0, n = N
    @example(2, 2, 2, 2, 4, 0, 4, Strategy.PARVTS_MASKED, 2)     # no question, k = |V|, j = n
    @example(3, 2, 1, 0, 5, 0, 2, Strategy.PARVTS_BATCH, 3)      # split, no system or question
    @example(2, 1, 0, 0, 4, 1, 4, Strategy.NONSUBJECT_FIRST, 4)  # an empty first stage
    @example(2, 1, 0, 0, 4, 0, 0, Strategy.SUBJECT_FIRST, 5)     # a stage with no rows
    def test_edge_layouts(self, num_layers, n, j, num_system, num_visual, num_question, keep,
                          strategy, seed):
        n = min(n, num_layers)
        model, layout, ids, saliency = seeded_inputs(
            ModelConfig(num_layers=num_layers, hidden_dim=16, num_heads=2, mlp_dim=32,
                        vocab_size=97, max_positions=16, master_seed=seed),
            num_system, num_visual, num_question,
        )
        partition = partition_topk(saliency, min(keep, num_visual))
        cfg = ScheduleConfig(strategy, n, 0.3, 0.7, min(j, n))
        try:
            run_strategy(model, ids, layout, partition, cfg)
        except InvalidArgumentError as exc:  # a stage with no rows
            with pytest.raises(InvalidArgumentError, match=f"^{exc}$"):
                replay(model, ids, layout, partition, cfg)
            return
        assert_replayed(model, ids, layout, partition, cfg)
