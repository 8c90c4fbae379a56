"""Per-token saliency and the subject / non-subject split.

Saliency is the attention a synthetic [CLS] query pays to each visual patch;
the subject group is the top-k of those scores. Scores can also be supplied
from a text file when an external encoder produced them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SaliencyFormatError
from .numerics import RngState, as_matrix, masked_softmax_rows, seeded_uniform


@dataclass(frozen=True)
class SaliencyScores:
    """One finite float per visual token, in visual-token order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidArgumentError("saliency values must be a 1-D array")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("saliency values must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Partition:
    """Subject vs. non-subject visual-token index sets (visual-segment relative).

    Both index arrays are strictly increasing, disjoint, and together cover
    0..num_visual-1. keep_count and pruning_rate derive from them.
    """

    subject_indices: np.ndarray
    nonsubject_indices: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.subject_indices, dtype=np.int64)
        non = np.asarray(self.nonsubject_indices, dtype=np.int64)
        if sub.size and not np.all(np.diff(sub) > 0):
            raise InvalidArgumentError("subject indices must be strictly increasing")
        if non.size and not np.all(np.diff(non) > 0):
            raise InvalidArgumentError("nonsubject indices must be strictly increasing")
        total = sub.size + non.size
        merged = np.concatenate([sub, non])
        if np.unique(merged).size != total or (total and merged.max() >= total):
            raise InvalidArgumentError("index sets must partition 0..num_visual-1")
        object.__setattr__(self, "subject_indices", sub)
        object.__setattr__(self, "nonsubject_indices", non)

    @property
    def num_visual(self) -> int:
        return self.subject_indices.size + self.nonsubject_indices.size

    @property
    def keep_count(self) -> int:
        return self.subject_indices.size

    @property
    def pruning_rate(self) -> float:
        """1 - keep_count / num_visual, or 0.0 when there are no visual tokens."""
        n = self.num_visual
        return 1.0 - self.keep_count / n if n else 0.0


def toy_cls_attention(patch_embeddings, seed: int) -> SaliencyScores:
    """Attention of one seeded [CLS] query head over all patches.

    Keys are a seeded linear projection of the patches; the returned weights
    are softmax(q . K^T / sqrt(dim)), non-negative and summing to 1.
    """
    patches = as_matrix(patch_embeddings)
    if patches.shape[0] == 0:
        raise InvalidArgumentError("at least one patch is required")
    dim = patches.shape[1]
    rng = RngState(seed)
    scale = 1.0 / np.sqrt(dim)
    query = seeded_uniform(rng, 1, dim, scale)
    w_key = seeded_uniform(rng, dim, dim, scale)
    keys = patches @ w_key
    scores = (query @ keys.T) / np.sqrt(dim)
    weights = masked_softmax_rows(scores, np.ones_like(scores, dtype=bool))
    return SaliencyScores(weights[0])


def partition_topk(saliency: SaliencyScores, keep_count: int) -> Partition:
    """Split indices into the keep_count most salient (ties keep the lower index)."""
    n = len(saliency)
    if keep_count < 0 or keep_count > n:
        raise InvalidArgumentError(
            f"keep_count {keep_count} outside [0, {n}]"
        )
    order = np.argsort(-saliency.values, kind="stable")
    subject = np.sort(order[:keep_count])
    nonsubject = np.sort(order[keep_count:])
    return Partition(subject_indices=subject, nonsubject_indices=nonsubject)


def load_saliency(path) -> SaliencyScores:
    """Read one decimal float per line; '#' lines are comments.

    Raises SaliencyFormatError with the 1-based line number on any bad line.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise SaliencyFormatError(f"not a decimal float: {line!r}", lineno)
            if not np.isfinite(value):
                raise SaliencyFormatError(f"non-finite value: {line!r}", lineno)
            values.append(value)
    return SaliencyScores(np.array(values, dtype=np.float64))
