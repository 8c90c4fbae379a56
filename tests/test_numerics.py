import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parvts.errors import InvalidArgumentError, InvalidMaskError
from parvts.numerics import (
    RMS_NORM_EPS,
    RngState,
    masked_softmax_rows,
    matmul,
    rms_norm,
    rope_apply,
    rope_rotate_heads,
    seeded_uniform,
)


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(eye, b), b)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[11.0]])

    def test_matches_triple_loop_reference(self):
        rng = RngState(42)
        a = seeded_uniform(rng, 8, 8, 1.0)
        b = seeded_uniform(rng, 8, 8, 1.0)
        expected = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                acc = 0.0
                for k in range(8):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(matmul(a, b), expected, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_tolerance(self):
        rng = RngState(7)
        a = seeded_uniform(rng, 16, 16, 1.0)
        b = seeded_uniform(rng, 16, 16, 1.0)
        c = seeded_uniform(rng, 16, 16, 1.0)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) <= 1e-9


class TestMaskedSoftmax:
    def test_uniform_row(self):
        out = masked_softmax_rows(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_single_survivor(self):
        out = masked_softmax_rows(
            np.array([[5.0, 5.0]]), np.array([[True, False]])
        )
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_direct_exponent_values(self):
        out = masked_softmax_rows(
            np.array([[1.0, 2.0, 3.0]]), np.ones((1, 3), dtype=bool)
        )
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out[0], expected, rtol=1e-15)

    def test_fully_blocked_row_rejected(self):
        with pytest.raises(InvalidMaskError):
            masked_softmax_rows(np.zeros((2, 2)), np.array([[True, True], [False, False]]))

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**16 - 1),
    )
    def test_rows_sum_to_one_and_blocked_vanish(self, rows, mask_seed):
        scores = np.array(rows)
        gen = np.random.Generator(np.random.Philox(key=[mask_seed, 0]))
        mask = gen.random(scores.shape) < 0.6
        mask[:, 0] = True  # keep every row feasible
        out = masked_softmax_rows(scores, mask)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out[~mask] == 0.0)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 6),
        st.integers(1, 40),
        st.floats(1e-3, 1e3),
        st.integers(0, 2**16 - 1),
    )
    def test_equals_two_pass_formula_and_keeps_scores(self, rows, cols, spread, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 1]))
        scores = gen.uniform(-spread, spread, size=(rows, cols))
        mask = gen.random((rows, cols)) < 0.5
        mask[np.arange(rows), gen.integers(0, cols, rows)] = True
        before = scores.copy()
        # the formula with a second mask pass over the exponentials
        neg = np.where(mask, scores, -np.inf)
        expd = np.where(mask, np.exp(neg - neg.max(axis=1, keepdims=True)), 0.0)
        expected = expd / expd.sum(axis=1, keepdims=True)
        out = masked_softmax_rows(scores, mask)
        assert np.array_equal(out, expected)
        assert np.array_equal(scores, before)


class TestRmsNorm:
    def test_unit_rms_vector(self):
        x = np.ones(4)
        out = rms_norm(x, np.ones(4))
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + RMS_NORM_EPS), atol=1e-12)

    def test_zero_input(self):
        np.testing.assert_array_equal(rms_norm(np.zeros(5), np.ones(5)), np.zeros(5))

    def test_hand_computed(self):
        out = rms_norm(np.array([3.0, 4.0]), np.ones(2))
        np.testing.assert_allclose(
            out, [0.8485277980128058, 1.1313703973504077], rtol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            rms_norm(np.ones(3), np.ones(4))


class TestRope:
    def test_position_zero_is_identity(self):
        vec = np.array([0.3, -1.2, 0.7, 2.5])
        np.testing.assert_array_equal(rope_apply(vec, 0), vec)

    def test_two_dim_rotation_by_hand(self):
        for position in (1, 3, 10):
            out = rope_apply(np.array([1.0, 0.0]), position)
            np.testing.assert_allclose(
                out, [np.cos(position), np.sin(position)], rtol=1e-15
            )

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rope_apply(np.ones(3), 1)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 500))
    def test_norm_preserved(self, seed, position):
        vec = seeded_uniform(RngState(seed), 1, 8, 1.0)[0]
        out = rope_apply(vec, position)
        assert abs(np.linalg.norm(out) - np.linalg.norm(vec)) <= 1e-12

    def test_batched_matches_single(self):
        rng = RngState(5)
        x = seeded_uniform(rng, 6, 16, 1.0).reshape(6, 2, 8)
        positions = np.array([0, 2, 3, 7, 11, 12])
        batched = rope_rotate_heads(x, positions)
        for r in range(6):
            for h in range(2):
                np.testing.assert_array_equal(
                    batched[r, h], rope_apply(x[r, h], int(positions[r]))
                )


class TestSeededUniform:
    def test_same_seed_bit_identical(self):
        a = seeded_uniform(RngState(123), 5, 7, 0.5)
        b = seeded_uniform(RngState(123), 5, 7, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_range_bound(self):
        out = seeded_uniform(RngState(9), 20, 20, 0.1)
        assert np.all(out >= -0.1) and np.all(out <= 0.1)

    def test_different_seeds_differ(self):
        a = seeded_uniform(RngState(1), 4, 4, 1.0)
        b = seeded_uniform(RngState(2), 4, 4, 1.0)
        assert np.any(a != b)

    def test_counter_advances_per_draw(self):
        rng = RngState(77)
        first = seeded_uniform(rng, 3, 3, 1.0)
        second = seeded_uniform(rng, 3, 3, 1.0)
        assert rng.counter == 2
        assert np.any(first != second)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InvalidArgumentError):
            seeded_uniform(RngState(0), 2, 2, 0.0)
