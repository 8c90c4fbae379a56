"""Saliency scoring and the subject / non-subject split.

A synthetic [CLS] query attends over patch embeddings; the attention row is
the saliency vector, and the top-k indices become the subject group that
survives pruning. Scores can also come from a plain text file.
"""

import os
import tempfile

import numpy as np

from parvts import (
    RngState,
    load_saliency,
    partition_topk,
    seeded_uniform,
    toy_cls_attention,
)

# Eight fake patches with an embedding width of 6.
patches = seeded_uniform(RngState(21), 8, 6, 1.0)
scores = toy_cls_attention(patches, seed=4)
print("saliency per visual token:")
for i, value in enumerate(scores.values):
    print(f"  token {i}: {value:.4f}")
print(f"sum = {scores.values.sum():.12f} (softmax row)")

# Keep the 3 most salient tokens; the rest become the non-subject group.
partition = partition_topk(scores, keep_count=3)
print("\nsubject indices:   ", partition.subject_indices.tolist())
print("non-subject indices:", partition.nonsubject_indices.tolist())
print(f"pruning rate: {partition.pruning_rate:.4f} (= 1 - 3/8)")

# Equal scores break ties toward the lower index.
tied = partition_topk(
    type(scores)(np.array([0.25, 0.25, 0.25, 0.25])), keep_count=2
)
print("\ntie-break on uniform scores, k=2 ->", tied.subject_indices.tolist())

# External scores: one float per line, '#' for comments.
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write("# CLIP-style scores, one per visual token\n0.4\n0.1\n0.3\n0.2\n")
    path = fh.name
loaded = load_saliency(path)
os.remove(path)
print("\nloaded from file:", loaded.values.tolist())
print("top-2 of the file:", partition_topk(loaded, 2).subject_indices.tolist())
