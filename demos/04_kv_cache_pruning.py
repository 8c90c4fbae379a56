"""KV-cache pruning: dropped positions vanish from every layer.

Pruning a cache is equivalent to masking those keys out of attention, so a
decode over the pruned cache matches a masked forward to float precision.
The scheduled prefills never store non-subject entries in the first place.
"""

import numpy as np

from parvts import (
    ModelConfig,
    ScheduleConfig,
    SequenceLayout,
    Strategy,
    build_model,
    decode_step,
    embed,
    partition_topk,
    prune_cache,
    run_strategy,
    run_vanilla,
    toy_cls_attention,
)
from parvts.harness import synthesize_token_ids
from parvts.scheduler import nonsubject_positions

model = build_model(
    ModelConfig(
        num_layers=3, hidden_dim=16, num_heads=2, mlp_dim=32,
        vocab_size=53, max_positions=32, master_seed=11,
    )
)
layout = SequenceLayout.from_counts(2, 8, 4)
ids = synthesize_token_ids(model.config, layout.total_prefill)

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
lo, hi = layout.visual_span
saliency = toy_cls_attention(embed(model, ids[lo:hi]), model.config.master_seed)
partition = partition_topk(saliency, keep_count=3)
result = run_strategy(
    model, ids, layout, partition,
    ScheduleConfig(Strategy.PARVTS_BATCH, migration_depth=2),
)
dropped = set(int(p) for p in nonsubject_positions(layout, partition))
cached = set(int(p) for p in result.cache.all_positions())
print("\nscheduled prefill cache entries per layer:", result.cache.entry_counts())
print("non-subject positions:", sorted(dropped))
print("cached positions:     ", sorted(cached))
print("intersection:         ", sorted(cached & dropped), "(always empty)")
