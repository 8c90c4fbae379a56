"""One sha256 over the brute-force oracle's output bits.

For each model and layout below it hashes oracle_two_pass's final hidden
states, retained positions and fused question states at the migration layer,
reference_prefill over the whole prompt, and a reference_run through every
layer under group_exclusive_mask. The models cover head_dim 8, 16 and 32; the
layouts cover no system tokens, one question token, k = 0, k = |V| and j = 0,
and the demo geometry's 128 visual tokens.

Run `python tests/oracle_digest.py` with `src` on the path to print the
digest. tests/data/oracle_sha256.txt holds the value under one BLAS thread.
"""

from __future__ import annotations

import hashlib

import numpy as np

from parvts.harness import seeded_inputs
from parvts.model import ModelConfig, embed
from parvts.oracle import oracle_two_pass, reference_prefill, reference_run
from parvts.saliency import partition_topk
from parvts.scheduler import ScheduleConfig, Strategy, group_exclusive_mask, row_groups

from kernel_digest import update

# (hidden_dim, num_heads): head_dim 8, 16 and 32
MODELS = ((32, 4), (32, 2), (64, 2))
# (system, visual, question, keep, migration_depth, joint_prefix_layers)
LAYOUTS = (
    (4, 16, 6, 6, 2, 1),
    (0, 12, 4, 5, 2, 1),  # |S| = 0
    (3, 10, 1, 4, 3, 1),  # |T| = 1
    (2, 9, 3, 0, 2, 1),  # k = 0
    (2, 9, 3, 9, 2, 1),  # k = |V|
    (4, 20, 5, 7, 2, 0),  # j = 0
    (4, 128, 6, 6, 2, 1),  # the demo geometry at 128 visual tokens
)


def digest() -> str:
    sha = hashlib.sha256()
    for hidden_dim, num_heads in MODELS:
        for system, visual, question, keep, n, j in LAYOUTS:
            config = ModelConfig(
                num_layers=4, hidden_dim=hidden_dim, num_heads=num_heads,
                mlp_dim=2 * hidden_dim, vocab_size=97,
                max_positions=system + visual + question, master_seed=visual + num_heads,
            )
            model, layout, ids, saliency = seeded_inputs(config, system, visual, question)
            partition = partition_topk(saliency, keep)
            cfg = ScheduleConfig(Strategy.PARVTS_BATCH, n, 0.5, 0.5, j)
            result = oracle_two_pass(model, ids, layout, partition, cfg)
            update(sha, result.hidden)
            update(sha, result.positions)
            update(sha, result.diagnostics["question_at_migration"])
            update(sha, reference_prefill(model, ids))

            positions = np.arange(ids.size, dtype=np.int64)
            mask = group_exclusive_mask(positions, row_groups(layout, partition))
            hidden = reference_run(model, embed(model, ids), positions, mask, 1, config.num_layers)
            update(sha, hidden)
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
