import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parvts.errors import InvalidArgumentError, SaliencyFormatError
from parvts.numerics import RngState, seeded_uniform
from parvts.saliency import (
    Partition,
    SaliencyScores,
    load_saliency,
    partition_topk,
    toy_cls_attention,
)


def _reference_cls_attention(patches, seed):
    """Direct softmax(q . K^T / sqrt(d)) with the documented seeded draws."""
    dim = patches.shape[1]
    rng = RngState(seed)
    scale = 1.0 / math.sqrt(dim)
    query = seeded_uniform(rng, 1, dim, scale)[0]
    w_key = seeded_uniform(rng, dim, dim, scale)
    logits = []
    for row in patches:
        key = np.array([float(row @ w_key[:, j]) for j in range(dim)])
        logits.append(float(query @ key) / math.sqrt(dim))
    peak = max(logits)
    weights = [math.exp(x - peak) for x in logits]
    total = sum(weights)
    return np.array([w / total for w in weights])


class TestToyClsAttention:
    def test_single_patch(self):
        scores = toy_cls_attention(np.ones((1, 4)), seed=3)
        np.testing.assert_array_equal(scores.values, [1.0])

    def test_identical_patches_uniform(self):
        patches = np.tile(np.array([0.4, -1.0, 2.0, 0.1]), (5, 1))
        scores = toy_cls_attention(patches, seed=8)
        np.testing.assert_allclose(scores.values, np.full(5, 0.2), atol=1e-12)

    def test_matches_direct_formula(self):
        patches = seeded_uniform(RngState(21), 8, 6, 1.0)
        scores = toy_cls_attention(patches, seed=4)
        np.testing.assert_allclose(
            scores.values, _reference_cls_attention(patches, 4), atol=1e-13
        )

    def test_sums_to_one(self):
        patches = seeded_uniform(RngState(2), 12, 4, 1.0)
        assert abs(toy_cls_attention(patches, seed=1).values.sum() - 1.0) <= 1e-12

    def test_permutation_equivariant(self):
        patches = seeded_uniform(RngState(13), 7, 4, 1.0)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        base = toy_cls_attention(patches, seed=9).values
        permuted = toy_cls_attention(patches[perm], seed=9).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            toy_cls_attention(np.empty((0, 4)), seed=0)


class TestPartitionTopk:
    def test_two_clear_maxima(self):
        part = partition_topk(SaliencyScores(np.array([0.1, 0.4, 0.4, 0.05])), 2)
        np.testing.assert_array_equal(part.subject_indices, [1, 2])
        np.testing.assert_array_equal(part.nonsubject_indices, [0, 3])

    def test_tie_breaks_toward_lower_index(self):
        part = partition_topk(SaliencyScores(np.array([0.4, 0.4])), 1)
        np.testing.assert_array_equal(part.subject_indices, [0])

    def test_boundary_counts(self):
        scores = SaliencyScores(np.array([0.2, 0.5, 0.3]))
        empty = partition_topk(scores, 0)
        assert empty.subject_indices.size == 0
        np.testing.assert_array_equal(empty.nonsubject_indices, [0, 1, 2])
        full = partition_topk(scores, 3)
        np.testing.assert_array_equal(full.subject_indices, [0, 1, 2])
        assert full.nonsubject_indices.size == 0

    def test_pruning_rate_exact(self):
        part = partition_topk(SaliencyScores(np.linspace(0, 1, 8)), 2)
        assert part.pruning_rate == 1.0 - 2 / 8

    def test_keep_count_too_large(self):
        with pytest.raises(InvalidArgumentError):
            partition_topk(SaliencyScores(np.array([0.5])), 2)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.data(),
    )
    def test_threshold_property(self, values, data):
        scores = SaliencyScores(np.array(values))
        k = data.draw(st.integers(0, len(values)))
        part = partition_topk(scores, k)
        if part.subject_indices.size and part.nonsubject_indices.size:
            lowest_kept = scores.values[part.subject_indices].min()
            highest_dropped = scores.values[part.nonsubject_indices].max()
            assert lowest_kept >= highest_dropped
            if lowest_kept == highest_dropped:
                # at the tie value, kept indices are the lowest-numbered ones
                tied_kept = part.subject_indices[
                    scores.values[part.subject_indices] == lowest_kept
                ]
                tied_dropped = part.nonsubject_indices[
                    scores.values[part.nonsubject_indices] == lowest_kept
                ]
                assert tied_kept.max() < tied_dropped.min()

    @settings(deadline=None, max_examples=50)
    @given(
        # dyadic values keep the shifted comparisons exact in float64
        st.lists(st.integers(-20, 20).map(lambda i: i / 2), min_size=2, max_size=10),
        st.integers(-200, 200).map(lambda i: i / 2),
        st.data(),
    )
    def test_shift_invariance(self, values, shift, data):
        k = data.draw(st.integers(0, len(values)))
        base = partition_topk(SaliencyScores(np.array(values)), k)
        shifted = partition_topk(SaliencyScores(np.array(values) + shift), k)
        np.testing.assert_array_equal(base.subject_indices, shifted.subject_indices)


class TestPartitionInvariants:
    def test_overlapping_sets_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Partition(
                subject_indices=np.array([0, 1]),
                nonsubject_indices=np.array([1, 2]),
            )

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Partition(
                subject_indices=np.array([2, 0]),
                nonsubject_indices=np.array([1]),
            )

    def test_counts_derive_from_index_sets(self):
        part = Partition(
            subject_indices=np.array([0, 1]),
            nonsubject_indices=np.array([2, 3, 4, 5]),
        )
        assert part.keep_count == 2
        assert part.pruning_rate == 1.0 - 2 / 6
        assert Partition(subject_indices=np.arange(0), nonsubject_indices=np.arange(0)).pruning_rate == 0.0


class TestLoadSaliency:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n0.25\n0.25\n")
        np.testing.assert_array_equal(load_saliency(path).values, [0.5, 0.25, 0.25])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# header\n0.5\n\n# tail\n0.5\n")
        np.testing.assert_array_equal(load_saliency(path).values, [0.5, 0.5])

    def test_nan_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\nnan\n")
        with pytest.raises(SaliencyFormatError, match="line 2"):
            load_saliency(path)

    def test_garbage_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# ok\n0.5\nnot-a-number\n")
        with pytest.raises(SaliencyFormatError, match="line 3"):
            load_saliency(path)
