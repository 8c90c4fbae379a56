"""Desk-scale laboratory for saliency-partitioned vision-token scheduling.

A float64 toy decoder with an explicit KV cache, five prefill strategies
over a subject / non-subject split of the visual tokens, brute-force
reference implementations for every scheduling claim, and the analytic
FLOPs/speedup model of scheduled inference.
"""

from .cost import (
    CostParams,
    CostReport,
    cost_report,
    decoding_flops_parvts,
    decoding_flops_vanilla,
    flops_layer,
    migration_depth_for,
    preset_migration_depths,
    prefill_flops_parvts,
    prefill_flops_vanilla,
    speedup_decoding,
    speedup_prefill,
)
from .errors import InvalidArgumentError, InvalidMaskError, SaliencyFormatError
from .harness import (
    ExperimentConfig,
    RunReport,
    compare_states,
    run_experiment,
    serialize_report,
)
from .model import (
    KVCache,
    Model,
    ModelConfig,
    SequenceLayout,
    build_model,
    causal_mask,
    decode_step,
    embed,
    greedy_decode,
    output_logits,
    run_layers,
)
from .numerics import (
    RngState,
    masked_softmax_rows,
    matmul,
    rms_norm,
    rope_apply,
    seeded_uniform,
)
from .oracle import oracle_two_pass, reference_prefill
from .saliency import (
    Partition,
    SaliencyScores,
    load_saliency,
    partition_topk,
    toy_cls_attention,
)
from .scheduler import (
    PrefillResult,
    ScheduleConfig,
    Strategy,
    fuse_question_states,
    prune_cache,
    run_strategy,
    run_vanilla,
)

__version__ = "0.1.0"
