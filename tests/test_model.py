import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import parvts.model
import parvts.numerics
from parvts.harness import seeded_inputs, synthesize_token_ids
from parvts.numerics import SOFTMAX_UNTILED_ROWS, softmax_tiles
from parvts.oracle import reference_prefill, reference_run
from parvts.saliency import partition_topk
from parvts.scheduler import (
    ScheduleConfig,
    Strategy,
    group_exclusive_mask,
    run_strategy,
    run_vanilla,
)


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


def _weights(model):
    """Every weight array: embedding, each layer's in field order, final gain, head."""
    layers = [getattr(lw, f.name) for lw in model.layers for f in fields(lw)]
    return [model.embedding, *layers, model.final_gain, model.lm_head]


class TestBuildModel:
    def test_deterministic_weights(self):
        a = build_model(small_config())
        b = build_model(small_config())
        for x, y in zip(_weights(a), _weights(b), strict=True):
            np.testing.assert_array_equal(x, y)

    def test_parameter_count_formula(self):
        cfg = small_config()
        model = build_model(cfg)
        d, m, v, n = cfg.hidden_dim, cfg.mlp_dim, cfg.vocab_size, cfg.num_layers
        # embedding + per layer (4 d^2 attn + 3 d m mlp + 2 gains) + final gain + head
        expected = v * d + n * (4 * d * d + 3 * d * m + 2 * d) + d + d * v
        assert sum(w.size for w in _weights(model)) == expected

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

    def test_zero_rows_rejected(self):
        model = build_model(small_config())
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(InvalidArgumentError, match="at least one row"):
            run_layers(model, embed(model, empty), empty, (1, 2), causal_mask(empty))
        with pytest.raises(InvalidArgumentError, match="at least one row"):
            run_vanilla(model, empty, SequenceLayout(0, 0, 0))

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
            model, embed(model, ids), pos, (1, 2), causal_mask(pos), cache
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
        run_layers(model, embed(model, ids), pos, (1, 2), causal_mask(pos), cache_a)
        tokens_a = greedy_decode(model, cache_a, start, 3)

        cache_b = model.new_cache()
        longer = np.array(ids + [start])
        pos_b = np.arange(6)
        run_layers(
            model, embed(model, longer), pos_b, (1, 2), causal_mask(pos_b), cache_b
        )
        tokens_b = greedy_decode(model, cache_b, tokens_a[0], 2)
        assert tokens_b == tokens_a[1:]


def _kernel_outputs(model, hidden, pos, mask):
    """run_layers output, the logits of 3 decode steps after it, then every layer's cache K/V."""
    cache = model.new_cache()
    out = [run_layers(model, hidden, pos, (1, model.config.num_layers), mask, cache)]
    out += [decode_step(model, cache, 5 + step, int(pos[-1]) + 1 + step) for step in range(3)]
    for layer in range(model.config.num_layers):
        out += [cache.keys(layer), cache.values(layer)]
    return out


def _per_head_attention(q, keys, values, mask, tiles):
    """Reference for _attention: one score, softmax and AV call per head, in a Python
    loop; it scales every column and leaves masked_softmax_rows to find its own tiles."""
    ctx = np.empty(q.shape)
    for head in range(q.shape[1]):
        scores = q[:, head, :] @ keys[:, head, :].T
        scores *= 1.0 / np.sqrt(q.shape[2])
        parvts.model.masked_softmax_rows(scores, mask, out=scores)
        ctx[:, head, :] = scores @ values[:, head, :]
    return ctx


class TestAttentionGrouping:
    """All heads share one softmax call while heads * rows <= SOFTMAX_UNTILED_ROWS
    (every decode step, small prefills); past that each head makes its own.

    Each call computes the rotary tables once and rotates and appends once per layer.
    """

    @pytest.mark.parametrize("heads", [4, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("masking", ["causal", "group_exclusive"])
    def test_few_rows_match_reference(self, heads, rows, masking):
        model = build_model(small_config(hidden_dim=4 * heads, num_heads=heads, num_layers=3))
        pos = np.array([0, 2, 3, 5, 7])[:rows]
        mask = causal_mask(pos)
        if masking == "group_exclusive":
            mask = group_exclusive_mask(pos, np.array([-1, 0, 1, 1, -1])[:rows])
        hidden = embed(model, synthesize_token_ids(model.config, rows))
        out = run_layers(model, hidden, pos, (1, 3), mask)
        expected = reference_run(model, hidden, pos, mask, 1, 3)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [8, 4, 2])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("masking", ["causal", "group_exclusive"])
    def test_stacked_heads_match_per_head_loop(self, monkeypatch, heads, rows, masking):
        # the prefill and the decode steps stack 8, 4 or 2 heads into one softmax call
        model = build_model(small_config(hidden_dim=4 * heads, num_heads=heads, num_layers=3))
        pos = np.array([0, 2, 3, 5, 7])[:rows]
        mask = causal_mask(pos)
        if masking == "group_exclusive":
            mask = group_exclusive_mask(pos, np.array([-1, 0, 1, 1, -1])[:rows])
        hidden = embed(model, synthesize_token_ids(model.config, rows))
        stacked = _kernel_outputs(model, hidden, pos, mask)
        monkeypatch.setattr(parvts.model, "_attention", _per_head_attention)
        per_head = _kernel_outputs(model, hidden, pos, mask)
        assert all(np.array_equal(a, b) for a, b in zip(stacked, per_head))

    @staticmethod
    def _count_calls(monkeypatch, name="masked_softmax_rows", owner=parvts.model, arg=0):
        """The shape of positional argument `arg` of each call to owner.name."""
        calls = []
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(np.shape(args[arg]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_decode_step_makes_one_call_per_layer(self, monkeypatch):
        model = build_model(small_config(hidden_dim=16, num_heads=4, num_layers=3))
        cache = model.new_cache()
        pos = np.arange(5)
        run_layers(model, embed(model, [1, 2, 3, 4, 5]), pos, (1, 3), causal_mask(pos), cache)
        calls = self._count_calls(monkeypatch)
        masks = self._count_calls(monkeypatch, arg=1)
        decode_step(model, cache, 6, 5)
        assert calls == [(4, 1, 6)] * 3 and masks == [()] * 3  # no mask: np.shape(None)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 6])
    def test_run_layers_calls_per_layer(self, monkeypatch, rows):
        model = build_model(small_config(hidden_dim=16, num_heads=4, num_layers=3))
        pos = np.arange(rows)
        calls = self._count_calls(monkeypatch)
        run_layers(model, embed(model, np.arange(rows) + 1), pos, (1, 3), causal_mask(pos))
        assert calls == [(4, rows, rows)] * 3

    def test_large_prefill_makes_one_call_per_head(self, monkeypatch):
        model = build_model(
            small_config(hidden_dim=16, num_heads=4, num_layers=3, max_positions=64)
        )
        rows = 60
        assert 4 * rows > SOFTMAX_UNTILED_ROWS
        pos = np.arange(rows)
        calls = self._count_calls(monkeypatch)
        hidden = embed(model, synthesize_token_ids(model.config, rows))
        run_layers(model, hidden, pos, (1, 3), causal_mask(pos))
        assert calls == [(1, rows, rows)] * (4 * 3)

    def test_rotary_tables_once_per_call(self, monkeypatch):
        model = build_model(small_config(hidden_dim=16, num_heads=4, num_layers=3))
        cache = model.new_cache()
        tables = self._count_calls(monkeypatch, "rope_tables")
        # a rotation given no tables computes its own through the numerics binding
        own_tables = self._count_calls(monkeypatch, "rope_tables", parvts.numerics)
        rotations = self._count_calls(monkeypatch, "rope_rotate_heads")
        appends = self._count_calls(monkeypatch, "append", KVCache, arg=2)
        pos = np.arange(5)
        run_layers(model, embed(model, [1, 2, 3, 4, 5]), pos, (1, 3), causal_mask(pos), cache)
        # q and k of the 4 heads go through one rotation
        assert tables == [(5,)] and rotations == [(5, 8, 4)] * 3
        assert appends == [(5,)] * 3
        del tables[:], rotations[:], appends[:]
        decode_step(model, cache, 6, 5)
        assert tables == [(1,)] and rotations == [(1, 8, 4)] * 3
        assert appends == [(1,)] * 3 and own_tables == []


def _two_pass_softmax(scores, mask, out=None, tiles=None, scale=None):
    """masked_softmax_rows as one untiled pass over every column (mask=None allows
    every entry) after one whole-block scale; `tiles` is ignored."""
    scores = scores if scale is None else scores * scale
    neg = scores if mask is None else np.where(mask, scores, -np.inf)
    expd = np.exp(neg - neg.max(axis=-1, keepdims=True))
    weights = expd / expd.sum(axis=-1, keepdims=True)
    if out is None:
        return weights
    out[...] = weights
    return out


def _full_width_attention(q, keys, values, mask, tiles):
    """Per-head attention over every key: full score and AV products, untiled softmax."""
    rows, heads, head_dim = q.shape
    ctx = np.empty(q.shape)
    for head in range(heads):
        scores = q[:, head, :] @ keys[:, head, :].T
        scores *= 1.0 / np.sqrt(head_dim)
        ctx[:, head, :] = _two_pass_softmax(scores, mask) @ values[:, head, :]
    return ctx


class TestTiledSoftmaxBits:
    """The row-tiled, in-place softmax leaves every output bit as the untiled formula."""

    ROWS = 448

    @pytest.mark.parametrize("reference", ["softmax", "attention"])
    @pytest.mark.parametrize("masking", ["causal", "group_exclusive"])
    def test_matches_untiled_reference(self, monkeypatch, reference, masking):
        model = build_model(
            small_config(hidden_dim=16, num_heads=2, num_layers=2, max_positions=460)
        )
        pos = np.arange(self.ROWS)
        mask = causal_mask(pos)
        if masking == "group_exclusive":
            # interleaved visual groups, as a saliency split leaves them
            groups = np.full(self.ROWS, -1)
            groups[8:420] = 1
            groups[8:420:3] = 0
            mask = group_exclusive_mask(pos, groups)
        hidden = embed(model, synthesize_token_ids(model.config, self.ROWS))
        tiled = _kernel_outputs(model, hidden, pos, mask)
        if reference == "softmax":
            monkeypatch.setattr(parvts.model, "masked_softmax_rows", _two_pass_softmax)
        else:
            monkeypatch.setattr(parvts.model, "_attention", _full_width_attention)
        untiled = _kernel_outputs(model, hidden, pos, mask)
        assert all(np.array_equal(a, b) for a, b in zip(tiled, untiled))

    # past SOFTMAX_PARALLEL_ROWS, where the tiles and the AV halves run on two cores;
    # 1111 rows leave keys % 8 != 0, where splitting the score product moved bits
    @pytest.mark.parametrize("rows", [600, 1111, 1248])
    @pytest.mark.parametrize("masking", ["causal", "group_exclusive"])
    def test_two_core_split_changes_no_bit(self, monkeypatch, rows, masking):
        model = build_model(
            small_config(hidden_dim=16, num_heads=2, num_layers=2, max_positions=rows + 4)
        )
        pos = np.arange(rows)
        mask = causal_mask(pos)
        if masking == "group_exclusive":
            groups = np.full(rows, -1)
            groups[8:rows - 40] = 1
            groups[8:rows - 40:3] = 0
            mask = group_exclusive_mask(pos, groups)
        hidden = embed(model, synthesize_token_ids(model.config, rows))
        runs, run = [], parvts.numerics.run_on_two_cores

        def counting(jobs):
            runs.append(len(jobs))
            run(jobs)

        monkeypatch.setattr(parvts.numerics, "run_on_two_cores", counting)
        split = _kernel_outputs(model, hidden, pos, mask)
        # per layer and head: the softmax tiles, then the two AV halves
        assert runs == [-(-rows // 64), 2] * 2 * model.config.num_layers
        del runs[:]
        monkeypatch.setattr(parvts.numerics, "SOFTMAX_PARALLEL_ROWS", 10**9)
        one_thread = _kernel_outputs(model, hidden, pos, mask)
        assert runs == []
        assert len(split) == len(one_thread) == 1 + 3 + 2 * model.config.num_layers
        assert all(np.array_equal(a, b) for a, b in zip(split, one_thread))

    # the two-core AV product moves no bit only if its first half is whole
    # softmax tiles and the two halves equal the product over every row
    @pytest.mark.parametrize("rows", [512, 577, 700, 1000, 1111, 1248, 1290])
    def test_av_halves_are_tile_aligned_and_exact(self, monkeypatch, rows):
        model = build_model(
            small_config(hidden_dim=16, num_heads=1, num_layers=1, max_positions=rows)
        )
        pos = np.arange(rows)
        hidden = embed(model, synthesize_token_ids(model.config, rows))
        products, matmul = [], np.matmul  # (scores, values, out) of each AV call

        def recording(a, b, out=None):
            if out is not None and out.shape[-1] == model.config.head_dim:
                products.append((a, b, out))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording)
        run_layers(model, hidden, pos, (1, 1), causal_mask(pos))
        monkeypatch.undo()
        # the halves may finish in either order; the first writes the lower rows
        (s1, values, out1), (s2, _, out2) = sorted(products, key=lambda p: p[2].ctypes.data)
        assert out1.shape[-2] % parvts.numerics.SOFTMAX_TILE_ROWS == 0
        assert out1.shape[-2] + out2.shape[-2] == rows
        whole = matmul(np.concatenate([s1, s2], axis=-2), values)
        assert np.array_equal(np.concatenate([out1, out2], axis=-2), whole)


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
                model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), cache
            )
            runs.append(greedy_decode(model, cache, 5, 4))
        assert runs[0] == runs[1]

    def test_matches_manual_decode_step_replay(self):
        model = build_model(small_config())
        cache = model.new_cache()
        pos = np.arange(4)
        run_layers(
            model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), cache
        )
        replay_cache = model.new_cache()
        run_layers(
            model, embed(model, [1, 2, 3, 4]), pos, (1, 2), causal_mask(pos), replay_cache
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

    @pytest.mark.parametrize("positions", [[1, 0], [0, 2, 2], [0, 3, 1, 4]])
    def test_validate_mask_rejects_nonincreasing_positions(self, positions):
        pos = np.array(positions)
        with pytest.raises(InvalidArgumentError, match="^positions must be strictly increasing$"):
            validate_mask(np.eye(pos.size, dtype=bool), pos)

    # (rows, row, future column): inside the one untiled block, inside the last
    # tile's diagonal block, and past the row's tile (64-row tiles above 192 rows)
    @pytest.mark.parametrize("rows, row, col", [
        (3, 1, 2), (SOFTMAX_UNTILED_ROWS + 8, 198, 199),
        (SOFTMAX_UNTILED_ROWS + 8, 130, 199), (SOFTMAX_UNTILED_ROWS + 8, 63, 64),
    ])
    def test_validate_mask_reports_future_before_empty_row(self, rows, row, col):
        pos = np.arange(rows) * 2
        mask = causal_mask(pos)
        mask[0, 0] = False  # row 0 has no allowed key
        mask[row, col] = True
        with pytest.raises(InvalidMaskError, match="^mask allows attention to a future position$"):
            validate_mask(mask, pos)
        mask = causal_mask(pos)
        mask[0, 0] = False
        with pytest.raises(InvalidMaskError, match="^query row 0 has no allowed key$"):
            validate_mask(mask, pos)

    def test_validate_mask_checks_shape_first(self):
        with pytest.raises(InvalidArgumentError, match="shape"):
            validate_mask(np.ones((2, 3), dtype=bool), np.array([1, 0]))

    @pytest.mark.parametrize("rows", [5, SOFTMAX_UNTILED_ROWS + 1, 300])
    def test_validate_mask_returns_softmax_tiles(self, rows):
        pos = np.arange(rows) + 3
        groups = np.full(rows, -1)
        groups[2::3], groups[1::3] = 0, 1
        mask = group_exclusive_mask(pos, groups)
        assert validate_mask(mask, pos) == softmax_tiles(mask)

    @settings(deadline=None, max_examples=60)
    @given(st.one_of(
        st.sets(st.integers(0, 400), max_size=60).map(sorted),
        st.lists(st.integers(0, 40), max_size=30),
    ))
    def test_causal_mask_is_the_position_formula(self, values):
        pos = np.array(values, dtype=np.int64)
        if np.all(pos[1:] > pos[:-1]):
            assert np.array_equal(causal_mask(pos), pos[None, :] <= pos[:, None])
        else:
            with pytest.raises(InvalidArgumentError, match="strictly increasing"):
                causal_mask(pos)

    def test_cache_rejects_nonincreasing_positions(self):
        cache = KVCache(1, 2, 4)
        kv = np.zeros((2, 2, 4))
        cache.append(0, np.array([3, 5]), kv, kv)
        with pytest.raises(InvalidArgumentError):
            cache.append(0, np.array([5]), kv[:1], kv[:1])

    def test_layout_spans(self):
        layout = SequenceLayout.from_counts(2, 3, 4)
        assert layout == SequenceLayout(num_system=2, num_visual=3, num_question=4)
        assert layout.visual_span == (2, 5)
        assert layout.output_start == layout.total_prefill == 9
        np.testing.assert_array_equal(layout.system_positions(), [0, 1])
        np.testing.assert_array_equal(layout.visual_positions(), [2, 3, 4])
        np.testing.assert_array_equal(layout.question_positions(), [5, 6, 7, 8])
        for counts in ((-1, 3, 4), (2, -1, 4), (2, 3, -1)):
            with pytest.raises(InvalidArgumentError, match="must be >= 0"):
                SequenceLayout(*counts)


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
        empty = KVCache(1, 2, 4)
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            empty.append(0, [9, 7], kv, kv)
        assert empty.entry_counts() == [0]

    def test_one_row_append_rejects_position_not_after_last_cached(self):
        cache = _filled_cache([2, 5, 6])  # capacity 4, one spare row
        stores = (cache._positions, cache._keys, cache._values)
        before = [store[0].tobytes() for store in stores]
        kv = np.zeros((1, 2, 4))
        for position in (6, 3):
            with pytest.raises(InvalidArgumentError, match="strictly increasing"):
                cache.append(0, [position], kv, kv)
        assert cache.entry_counts() == [3]
        assert [store[0].tobytes() for store in stores] == before

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


def _row_major_buffer(cache, capacity):
    return np.empty((capacity, cache.num_heads, cache.head_dim))


class TestCacheLayout:
    """Keys and values live in head-major memory, and no output bit depends on it."""

    STEPS = 40

    @staticmethod
    def _assert_head_major(cache, layer=0):
        for kv in (cache.keys(layer), cache.values(layer)):
            assert kv.shape == (cache.entry_counts()[layer], cache.num_heads, cache.head_dim)
            assert all(kv[:, head].flags.c_contiguous for head in range(cache.num_heads))

    def test_heads_stay_contiguous_through_append_growth_and_drop(self):
        cache = KVCache(1, 3, 4)
        kv = np.arange(5 * 12, dtype=np.float64).reshape(5, 3, 4)
        cache.append(0, np.arange(5), kv, -kv)
        self._assert_head_major(cache)
        for p in range(5, 12):  # grows capacity 5 -> 10 -> 20
            row = np.full((1, 3, 4), float(p))
            cache.append(0, [p], row, -row)
        assert cache._keys[0].shape[0] == 20
        self._assert_head_major(cache)
        keys, values = cache.keys(0).copy(), cache.values(0).copy()
        pruned = cache.drop_positions([0, 3, 7])
        kept = [1, 2, 4, 5, 6, 8, 9, 10, 11]
        assert pruned.positions(0).tolist() == kept
        self._assert_head_major(pruned)
        np.testing.assert_array_equal(pruned.keys(0), keys[kept])
        np.testing.assert_array_equal(pruned.values(0), values[kept])

    def test_drop_gathers_into_exact_size_buffers(self):
        rows, heads, head_dim = 2048, 4, 32
        cache = KVCache(1, heads, head_dim)
        kv = np.ones((rows, heads, head_dim))
        cache.append(0, np.arange(rows), kv, kv)
        drop = np.arange(0, rows, 4)
        kept_bytes = (rows - drop.size) * heads * head_dim * 8
        tracemalloc.start()
        try:
            pruned = cache.drop_positions(drop)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pruned._keys[0].shape[0] == pruned._values[0].shape[0] == rows - drop.size
        # the new keys and values are nearly all that is left; gathering the
        # kept rows into a temporary first would lift the peak by kept_bytes
        assert 2 * kept_bytes <= current and peak - current < kept_bytes // 4

    def _run(self, strategy, keep):
        """Prefill hidden states, the logits of STEPS decode steps, then every cache layer."""
        model, layout, ids, saliency = seeded_inputs(
            ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, mlp_dim=128,
                        vocab_size=97, max_positions=80, master_seed=4),
            4, 16, 6,
        )
        cfg = ScheduleConfig(Strategy(strategy), migration_depth=2)
        result = run_strategy(model, ids, layout, partition_topk(saliency, keep), cfg)
        cache = result.cache
        first = cache.entry_counts()
        out = [result.hidden]
        token = int(np.argmax(output_logits(model, result.hidden[-1:])[0]))
        for step in range(self.STEPS):
            out.append(decode_step(model, cache, token, layout.output_start + step))
            token = int(np.argmax(out[-1]))
        # every layer's capacity doubled at least twice during the steps
        assert all(cache._keys[layer].shape[0] >= 4 * first[layer] for layer in range(4))
        for layer in range(4):
            out += [cache.positions(layer), cache.keys(layer), cache.values(layer)]
        return out, cache

    @pytest.mark.parametrize(
        "strategy, keep", [("Vanilla", 6), ("ParVTSBatch", 0), ("ParVTSBatch", 6)]
    )
    def test_bits_do_not_depend_on_memory_layout(self, monkeypatch, strategy, keep):
        head_major, head_major_cache = self._run(strategy, keep)
        monkeypatch.setattr(KVCache, "_buffer", _row_major_buffer)
        row_major, row_major_cache = self._run(strategy, keep)
        assert len(head_major) == len(row_major)
        assert all(np.array_equal(a, b) for a, b in zip(head_major, row_major))
        self._assert_head_major(head_major_cache)
        assert not row_major_cache.keys(0)[:, 0].flags.c_contiguous
