import numpy as np
import pytest

from parvts.errors import InvalidArgumentError, InvalidMaskError
from parvts.model import (
    KVCache,
    ModelConfig,
    SequenceLayout,
    build_model,
    causal_mask,
    decode_step,
    embed,
    greedy_decode,
    output_logits,
    run_layers,
    validate_mask,
)
from parvts.harness import synthesize_token_ids
from parvts.oracle import reference_prefill, reference_run


def small_config(**overrides):
    base = dict(
        num_layers=2,
        hidden_dim=8,
        num_heads=2,
        mlp_dim=16,
        vocab_size=23,
        max_positions=32,
        master_seed=5,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestBuildModel:
    def test_deterministic_checksums(self):
        a = build_model(small_config())
        b = build_model(small_config())
        assert a.parameter_checksum() == b.parameter_checksum()
        np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_parameter_count_formula(self):
        cfg = small_config()
        model = build_model(cfg)
        d, m, v, n = cfg.hidden_dim, cfg.mlp_dim, cfg.vocab_size, cfg.num_layers
        # embedding + per layer (4 d^2 attn + 3 d m mlp + 2 gains) + final gain + head
        expected = v * d + n * (4 * d * d + 3 * d * m + 2 * d) + d + d * v
        assert model.parameter_count() == expected

    def test_indivisible_heads_rejected(self):
        with pytest.raises(InvalidArgumentError):
            small_config(hidden_dim=7, num_heads=2)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            small_config(hidden_dim=6, num_heads=2)


class TestEmbed:
    def test_empty(self):
        model = build_model(small_config())
        assert embed(model, []).shape == (0, 8)

    def test_repeated_id_identical_rows(self):
        model = build_model(small_config())
        rows = embed(model, [4, 4])
        np.testing.assert_array_equal(rows[0], rows[1])

    def test_exact_table_rows(self):
        model = build_model(small_config())
        rows = embed(model, [3, 5])
        np.testing.assert_array_equal(rows[0], model.embedding[3])
        np.testing.assert_array_equal(rows[1], model.embedding[5])

    def test_out_of_range(self):
        model = build_model(small_config())
        with pytest.raises(InvalidArgumentError):
            embed(model, [23])


class TestRunLayers:
    def test_empty_range_identity(self):
        model = build_model(small_config())
        hidden = embed(model, [1, 2, 3])
        pos = np.arange(3)
        out = run_layers(model, hidden, pos, (2, 1), causal_mask(pos))
        np.testing.assert_array_equal(out, hidden)

    def test_single_token_degenerate_attention(self):
        model = build_model(small_config())
        hidden = embed(model, [7])
        pos = np.array([0])
        out = run_layers(model, hidden, pos, (1, 2), np.ones((1, 1), dtype=bool))
        ref = reference_run(model, hidden, pos, np.ones((1, 1), dtype=bool), 1, 2)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_matches_naive_reference_forward(self):
        model = build_model(small_config())
        ids = synthesize_token_ids(model.config, 6)
        pos = np.arange(6)
        out = run_layers(model, embed(model, ids), pos, (1, 2), causal_mask(pos))
        np.testing.assert_allclose(out, reference_prefill(model, ids), atol=1e-12)

    def test_fully_blocked_row_rejected(self):
        model = build_model(small_config())
        mask = causal_mask(np.arange(3))
        mask[1, :] = False
        with pytest.raises(InvalidMaskError):
            run_layers(model, embed(model, [1, 2, 3]), np.arange(3), (1, 1), mask)

    def test_cache_tags_match_positions(self):
        model = build_model(small_config())
        positions = np.array([2, 5, 9])
        cache = model.new_cache()
        run_layers(
            model,
            embed(model, [1, 2, 3]),
            positions,
            (1, 2),
            causal_mask(positions),
            cache,
            record_cache=True,
        )
        for layer in range(2):
            np.testing.assert_array_equal(cache.positions(layer), positions)

    def test_causality_zeroed_future_token(self):
        model = build_model(small_config())
        ids = synthesize_token_ids(model.config, 5)
        pos = np.arange(5)
        mask = causal_mask(pos)
        base = run_layers(model, embed(model, ids), pos, (1, 2), mask)
        for zeroed in range(1, 5):
            poked = embed(model, ids)
            poked[zeroed] = 0.0
            out = run_layers(model, poked, pos, (1, 2), mask)
            assert np.max(np.abs(out[:zeroed] - base[:zeroed])) == 0.0


class TestDecode:
    def test_empty_cache_equals_one_token_prefill(self):
        model = build_model(small_config())
        cache = model.new_cache()
        logits = decode_step(model, cache, 7, 0)
        prefill = run_layers(
            model, embed(model, [7]), np.array([0]), (1, 2), np.ones((1, 1), dtype=bool)
        )
        np.testing.assert_allclose(logits, output_logits(model, prefill)[0], atol=1e-12)

    def test_entry_count_grows_by_one(self):
        model = build_model(small_config())
        cache = model.new_cache()
        decode_step(model, cache, 1, 0)
        assert cache.entry_counts() == [1, 1]
        decode_step(model, cache, 2, 1)
        assert cache.entry_counts() == [2, 2]

    def test_position_conflict_rejected(self):
        model = build_model(small_config())
        cache = model.new_cache()
        decode_step(model, cache, 1, 3)
        with pytest.raises(InvalidArgumentError):
            decode_step(model, cache, 1, 3)

    def test_two_steps_match_batched_continuation(self):
        model = build_model(small_config())
        ids = list(synthesize_token_ids(model.config, 6))
        extra = [9, 14]
        cache = model.new_cache()
        pos = np.arange(6)
        run_layers(
            model, embed(model, ids), pos, (1, 2), causal_mask(pos), cache, True
        )
        decode_step(model, cache, extra[0], 6)
        stepped = decode_step(model, cache, extra[1], 7)

        full = np.array(ids + extra)
        pos_full = np.arange(8)
        hidden = run_layers(
            model, embed(model, full), pos_full, (1, 2), causal_mask(pos_full)
        )
        batched = output_logits(model, hidden)[-1]
        np.testing.assert_allclose(stepped, batched, atol=1e-9)

    def test_prefill_decode_consistency(self):
        model = build_model(small_config())
        ids = list(synthesize_token_ids(model.config, 5))
        start = 3

        cache_a = model.new_cache()
        pos = np.arange(5)
        run_layers(model, embed(model, ids), pos, (1, 2), causal_mask(pos), cache_a, True)
        tokens_a = greedy_decode(model, cache_a, start, 3)

        cache_b = model.new_cache()
        longer = np.array(ids + [start])
        pos_b = np.arange(6)
        run_layers(
            model, embed(model, longer), pos_b, (1, 2), causal_mask(pos_b), cache_b, True
        )
        tokens_b = greedy_decode(model, cache_b, tokens_a[0], 2)
        assert tokens_b == tokens_a[1:]


class TestGreedyDecode:
    def test_zero_steps(self):
        model = build_model(small_config())
        assert greedy_decode(model, model.new_cache(), 1, 0) == []

    def test_deterministic(self):
        model = build_model(small_config())
        runs = []
        for _ in range(2):
            cache = model.new_cache()
            pos = np.arange(4)
            run_layers(
                model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), cache, True
            )
            runs.append(greedy_decode(model, cache, 5, 4))
        assert runs[0] == runs[1]

    def test_matches_manual_decode_step_replay(self):
        model = build_model(small_config())
        cache = model.new_cache()
        pos = np.arange(4)
        run_layers(
            model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), cache, True
        )
        replay_cache = model.new_cache()
        run_layers(
            model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), replay_cache, True
        )
        decoded = greedy_decode(model, cache, 5, 3)
        token, position = 5, 4
        for expected in decoded:
            logits = decode_step(model, replay_cache, token, position)
            assert int(np.argmax(logits)) == expected
            token, position = expected, position + 1


class TestMasksAndCache:
    def test_validate_mask_rejects_future(self):
        mask = np.ones((2, 2), dtype=bool)
        with pytest.raises(InvalidMaskError):
            validate_mask(mask, np.array([0, 1]))  # row 0 sees position 1

    def test_cache_rejects_nonincreasing_positions(self):
        cache = KVCache(1, 2, 4)
        kv = np.zeros((2, 2, 4))
        cache.append(0, np.array([3, 5]), kv, kv)
        with pytest.raises(InvalidArgumentError):
            cache.append(0, np.array([5]), kv[:1], kv[:1])

    def test_layout_spans(self):
        layout = SequenceLayout.from_counts(2, 3, 4)
        assert layout.system_span == (0, 2)
        assert layout.visual_span == (2, 5)
        assert layout.question_span == (5, 9)
        assert layout.output_start == 9
        with pytest.raises(InvalidArgumentError):
            SequenceLayout((0, 2), (3, 5), (5, 9), 9)


def _filled_cache(positions, num_layers=1):
    cache = KVCache(num_layers, 2, 4)
    for layer in range(num_layers):
        for p in positions:
            kv = np.full((1, 2, 4), float(p))
            cache.append(layer, [p], kv, kv + 0.5)
    return cache


class TestCacheStorage:
    def test_accessors_are_views_sized_to_the_entries(self):
        cache = _filled_cache([1, 4, 6])
        assert cache.positions(0).tolist() == [1, 4, 6]
        assert cache.keys(0).shape == (3, 2, 4) and cache.values(0).shape == (3, 2, 4)
        np.testing.assert_array_equal(cache.values(0)[:, 0, 0], [1.5, 4.5, 6.5])

    def test_first_append_reserves_no_spare_capacity(self):
        cache = KVCache(1, 2, 4)
        kv = np.zeros((5, 2, 4))
        cache.append(0, np.arange(5), kv, kv)
        assert cache._keys[0].shape[0] == 5

    def test_earlier_views_survive_appends_and_growth(self):
        cache = KVCache(1, 2, 4)
        kv = np.arange(3 * 8, dtype=np.float64).reshape(3, 2, 4)
        cache.append(0, [0, 1, 2], kv, kv)
        keys, positions = cache.keys(0), cache.positions(0)
        keys_before, positions_before = keys.copy(), positions.copy()
        for p in range(3, 20):  # grows capacity 3 -> 6 -> 12 -> 24
            cache.append(0, [p], np.full((1, 2, 4), -1.0), np.full((1, 2, 4), -1.0))
        assert keys.shape == (3, 2, 4) and positions.shape == (3,)
        np.testing.assert_array_equal(keys, keys_before)
        np.testing.assert_array_equal(positions, positions_before)
        np.testing.assert_array_equal(cache.keys(0)[:3], keys_before)
        assert cache.positions(0).tolist() == list(range(20))

    def test_dropped_copy_is_independent_of_later_appends(self):
        cache = _filled_cache([0, 1, 2, 3])
        pruned = cache.drop_positions([1])
        kv = np.full((1, 2, 4), 9.0)
        cache.append(0, [4], kv, kv)
        assert pruned.positions(0).tolist() == [0, 2, 3]
        np.testing.assert_array_equal(pruned.keys(0)[:, 0, 0], [0.0, 2.0, 3.0])
        pruned.append(0, [7], kv, kv)
        assert cache.positions(0).tolist() == [0, 1, 2, 3, 4]

    def test_append_rejects_position_not_after_last_cached(self):
        cache = _filled_cache([2, 5])
        kv = np.zeros((2, 2, 4))
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            cache.append(0, [4, 9], kv, kv)
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            cache.append(0, [9, 9], kv, kv)
        assert cache.positions(0).tolist() == [2, 5]

    def test_append_rejects_rows_out_of_step_with_positions(self):
        cache = KVCache(1, 2, 4)
        with pytest.raises(InvalidArgumentError, match="shape"):
            cache.append(0, [0, 1], np.zeros((1, 2, 4)), np.zeros((1, 2, 4)))
        assert cache.entry_counts() == [0]

    def test_check_invariants_passes_and_names_the_layer_at_fault(self):
        cache = _filled_cache([0, 3, 5], num_layers=3)
        cache.check_invariants()
        cache.check_invariants(pruned=[1, 2, 4])
        with pytest.raises(InvalidArgumentError, match="layer 0: pruned position cached"):
            cache.check_invariants(pruned=[3])
        cache._positions[2][1] = 7
        with pytest.raises(InvalidArgumentError, match="layer 2: positions not strictly"):
            cache.check_invariants()
        cache._positions[2][1] = 3
        cache._values[1] = cache._values[1][:2]
        with pytest.raises(InvalidArgumentError, match="layer 1: keys/values rows differ"):
            cache.check_invariants()
