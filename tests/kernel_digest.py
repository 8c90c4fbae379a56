"""One sha256 over the layer kernel's output bits, for every schedule.

For each layout below and each of the five strategies it hashes the toy
saliency, the prefill's final hidden states, every cache layer's positions,
keys and values, and the logits of 8 greedy decode steps after the prefill.
The layouts sit on both sides of the softmax's untiled row limit (192 rows);
one has fewer rows than heads and the largest has 960 rows. Two leave one
visual group empty (keep 0 and keep all); the keep-all one has no system
tokens and a joint prefix as deep as the migration layer. The last migrates
at the last layer (n = N), so no layer runs after the migration step.

Run `python tests/kernel_digest.py` with `src` on the path to print the
digest. tests/data/kernel_sha256.txt holds the value under one BLAS thread.
"""

from __future__ import annotations

import hashlib

import numpy as np

from parvts.harness import seeded_inputs
from parvts.model import ModelConfig, decode_step, output_logits
from parvts.saliency import partition_topk
from parvts.scheduler import ScheduleConfig, Strategy, run_strategy

DECODE_STEPS = 8
# (system, visual, question, keep, migration_depth, joint_prefix_layers)
LAYOUTS = (
    (0, 2, 1, 1, 2, 1),
    (4, 16, 6, 6, 2, 1),
    (8, 150, 20, 40, 3, 0),
    (32, 140, 64, 16, 2, 1),
    (32, 300, 64, 40, 2, 1),
    (32, 576, 64, 64, 3, 1),
    (32, 864, 64, 96, 2, 1),
    (4, 16, 6, 0, 2, 1),
    (0, 20, 3, 20, 3, 3),
    (4, 16, 6, 6, 4, 1),
)


def update(sha, array):
    array = np.ascontiguousarray(array)
    sha.update(str((array.dtype.str, array.shape)).encode())
    sha.update(array.tobytes())


def digest() -> str:
    sha = hashlib.sha256()
    for system, visual, question, keep, n, j in LAYOUTS:
        config = ModelConfig(
            num_layers=4, hidden_dim=64, num_heads=4, mlp_dim=128, vocab_size=256,
            max_positions=system + visual + question + DECODE_STEPS + 1, master_seed=visual,
        )
        model, layout, ids, saliency = seeded_inputs(config, system, visual, question)
        update(sha, saliency.values)
        partition = partition_topk(saliency, keep)
        for strategy in Strategy:
            cfg = ScheduleConfig(strategy, n, joint_prefix_layers=j)
            result = run_strategy(model, ids, layout, partition, cfg)
            update(sha, result.hidden)
            for layer in range(config.num_layers):
                for part in (result.cache.positions, result.cache.keys, result.cache.values):
                    update(sha, part(layer))
            token = int(np.argmax(output_logits(model, result.hidden[-1:])[0]))
            position = layout.output_start
            for _ in range(DECODE_STEPS):
                logits = decode_step(model, result.cache, token, position)
                update(sha, logits)
                token, position = int(np.argmax(logits)), position + 1
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
