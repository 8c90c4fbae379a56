"""KV-cache pruning: dropped positions vanish from every layer.

Pruning a cache is equivalent to masking those keys out of attention, so a
decode over the pruned cache matches a masked forward to float precision.
The scheduled prefills never store non-subject entries in the first place.
"""

import numpy as np

from parvts import (
    ModelConfig,
    ScheduleConfig,
    Strategy,
    decode_step,
    partition_topk,
    prune_cache,
    run_strategy,
    run_vanilla,
)
from parvts.harness import seeded_inputs

model, layout, ids, saliency = seeded_inputs(
    ModelConfig(
        num_layers=3, hidden_dim=16, num_heads=2, mlp_dim=32,
        vocab_size=53, max_positions=32, master_seed=11,
    ),
    num_system=2, num_visual=8, num_question=4,
)

vanilla = run_vanilla(model, ids, layout)
print("vanilla cache entries per layer:", vanilla.cache.entry_counts())

drop = layout.visual_positions()[::2]
pruned = prune_cache(vanilla.cache, drop)
print(f"after dropping visual positions {drop.tolist()}:", pruned.entry_counts())
print("surviving positions at layer 0:", pruned.positions(0).tolist())

# Decoding over the pruned cache = decoding with those keys masked out.
logits = decode_step(model, pruned, token_id=7, position=layout.total_prefill)
print(f"\nnext-token logits over the pruned cache: argmax = {int(np.argmax(logits))}")

# A scheduled prefill prunes as it goes: non-subject positions never appear.
partition = partition_topk(saliency, keep_count=3)
result = run_strategy(
    model, ids, layout, partition,
    ScheduleConfig(Strategy.PARVTS_BATCH, migration_depth=2),
)
dropped = set(int(p) for p in layout.visual_span[0] + partition.nonsubject_indices)
cached = set(int(p) for p in result.cache.all_positions())
print("\nscheduled prefill cache entries per layer:", result.cache.entry_counts())
print("non-subject positions:", sorted(dropped))
print("cached positions:     ", sorted(cached))
print("intersection:         ", sorted(cached & dropped), "(always empty)")
