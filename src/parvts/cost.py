"""Analytic FLOPs model for vanilla and scheduled prefill/decoding.

Counts multi-head attention and feed-forward work only (no embeddings,
norms, or output head). A single layer over L tokens costs

    4 d^2 L + 2 d L^2 + 2 m d L

and decoding sums that attention term over a growing cache. The scheduled
variant runs n full-length layers and N - n layers at the reduced length
L_text + (1 - p) * L_img; its decoding cost depends only on the reduced
length, never on the migration depth. The sequential schedules run one
visual group through the first n layers and the other through the rest.
`schedule_cost` gives either schedule's costs and ratios against vanilla;
with no decode steps (M = 0) its decoding ratio is 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidArgumentError

# Published migration-depth presets: (backbone, params, depth).
_PRESETS = (
    ("LLaVA-1.5", "7B", 3),
    ("LLaVA-1.5", "13B", 3),
    ("LLaVA-Next", "7B", 16),
    ("LLaVA-Next", "13B", 16),
    ("Qwen2.5-VL", "3B", 18),
    ("Qwen2.5-VL", "7B", 18),
    ("Qwen3-VL", "2B", 10),
    ("Qwen3-VL", "4B", 12),
    ("Qwen3-VL", "8B", 12),
    ("InternVL2", "2B", 18),
    ("InternVL2", "8B", 16),
    ("InternVL2.5", "2B", 18),
    ("InternVL2.5", "8B", 16),
    ("Video-LLaVA", "7B", 24),
)

@dataclass(frozen=True)
class CostParams:
    """Inputs of the analytic model; the prompt length L = L_text + L_img is derived."""

    p: float
    n: int
    N: int
    L_text: int
    L_img: int
    M: int
    d: int
    m: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError("pruning rate p must lie in [0, 1]")
        if not 1 <= self.n <= self.N:
            raise InvalidArgumentError(f"migration depth n = {self.n} outside [1, N = {self.N}]")
        for name in ("L_text", "L_img", "M", "d", "m"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")

    @property
    def L(self) -> int:
        return self.L_text + self.L_img

    @property
    def reduced_length(self) -> float:
        return self.L_text + (1.0 - self.p) * self.L_img


@dataclass(frozen=True)
class CostReport:
    """Outputs of the analytic model, in the order `parvts cost` prints them."""

    prefill_flops_vanilla: float
    prefill_flops_parvts: float
    decoding_flops_vanilla: float
    decoding_flops_parvts: float
    rho_prefill: float
    rho_decoding: float


def flops_layer(d: float, m: float, L: float) -> float:
    """4 d^2 L + 2 d L^2 + 2 m d L for one layer over L tokens."""
    if min(d, m, L) < 0:
        raise InvalidArgumentError("counts must be non-negative")
    return 4.0 * d * d * L + 2.0 * d * L * L + 2.0 * m * d * L


def prefill_flops_vanilla(params: CostParams) -> float:
    return params.N * flops_layer(params.d, params.m, params.L)


def decoding_flops_vanilla(params: CostParams, mode: str = "closed") -> float:
    """Decoding cost over M steps with cache length L + i - 1 at step i.

    'stepwise' sums the M per-step terms literally, one by one, whatever M
    is; 'closed' evaluates N * M * (4d^2 + 2d(L + (M-1)/2) + 2md).
    """
    N, M, d, m, L = params.N, params.M, params.d, params.m, params.L
    if mode == "closed":
        if M == 0:
            return 0.0
        return N * M * (4.0 * d * d + 2.0 * d * (L + (M - 1) / 2.0) + 2.0 * m * d)
    if mode == "stepwise":
        total = 0.0
        for i in range(1, M + 1):
            total += N * (4.0 * d * d + 2.0 * d * (L + i - 1) + 2.0 * m * d)
        return total
    raise InvalidArgumentError(f"unknown mode {mode!r}")


def _staged_prefill(params: CostParams, len1: float, len2: float) -> float:
    """n layers over len1 rows, then N - n layers over len2 rows."""
    d, m, n = params.d, params.m, params.n
    return n * flops_layer(d, m, len1) + (params.N - n) * flops_layer(d, m, len2)


def prefill_flops_parvts(params: CostParams) -> float:
    return _staged_prefill(params, params.L, params.reduced_length)


def decoding_flops_parvts(params: CostParams) -> float:
    N, M, d, m = params.N, params.M, params.d, params.m
    if M == 0:
        return 0.0
    return N * M * (
        4.0 * d * d + 2.0 * m * d + 2.0 * d * ((M - 1) / 2.0 + params.reduced_length)
    )


def prefill_flops_sequential(params: CostParams, first: int) -> float:
    """Sequential schedule: n layers over L_text + first rows (`first` visual
    tokens in stage 1), N - n over the L_text + L_img - first others."""
    L_text = params.L_text
    return _staged_prefill(params, L_text + first, L_text + (params.L_img - first))


def decoding_flops_sequential(params: CostParams, first: int) -> float:
    """Decoding after a sequential schedule; each layer attends to the rows it cached."""
    d, m, n, N, M = params.d, params.m, params.n, params.N, params.M
    if M == 0:
        return 0.0
    len1, len2 = params.L_text + first, params.L_text + (params.L_img - first)
    const = 4.0 * d * d + 2.0 * m * d
    half = (M - 1) / 2.0
    return M * (
        n * (const + 2.0 * d * (len1 + half))
        + (N - n) * (const + 2.0 * d * (len2 + half))
    )


def speedup_prefill(params: CostParams) -> float:
    denom = prefill_flops_parvts(params)
    if denom == 0.0:
        raise InvalidArgumentError(
            "prefill speedup undefined: the ParVTS prefill costs 0 FLOPs "
            "(d = 0 or L_text + L_img = 0)"
        )
    return prefill_flops_vanilla(params) / denom


def speedup_decoding(params: CostParams) -> float:
    """Closed-form ratio; equals the decoding-FLOPs ratio whenever M >= 1."""
    d, m, M = params.d, params.m, params.M
    half = (M - 1) / 2.0
    return (2.0 * d + m + params.L + half) / (
        2.0 * d + m + half + params.reduced_length
    )


def schedule_cost(params: CostParams, first: int | None = None) -> tuple[float, ...]:
    """(prefill, decoding, rho_prefill, rho_decoding) of ParVTS, or with `first` of the
    sequential schedule whose first stage holds `first` visual tokens. The ratios are
    vanilla over the schedule; with no decode steps (M = 0) rho_decoding is 1.0.
    Raises InvalidArgumentError if the schedule's prefill costs 0 FLOPs."""
    if first is None:
        prefill, decoding = prefill_flops_parvts(params), decoding_flops_parvts(params)
        rho_prefill = speedup_prefill(params)
    else:
        prefill = prefill_flops_sequential(params, first)
        if prefill == 0.0:
            raise InvalidArgumentError(
                "prefill speedup undefined: the sequential prefill costs 0 FLOPs (d = 0, or an "
                f"empty first stage, L_text + first = {params.L_text + first}, and no rows "
                "after it)")
        decoding = decoding_flops_sequential(params, first)
        rho_prefill = prefill_flops_vanilla(params) / prefill
    if params.M == 0:
        rho_decoding = 1.0
    elif first is None:
        rho_decoding = speedup_decoding(params)
    else:
        rho_decoding = decoding_flops_vanilla(params) / decoding
    return prefill, decoding, rho_prefill, rho_decoding


def cost_report(params: CostParams) -> CostReport:
    """The model's outputs; raises InvalidArgumentError naming the first non-finite one."""
    prefill, decoding, rho_prefill, rho_decoding = schedule_cost(params)
    report = CostReport(
        prefill_flops_vanilla(params), prefill, decoding_flops_vanilla(params), decoding,
        rho_prefill, rho_decoding,
    )
    for name, value in vars(report).items():
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} = {value!r} is not finite")
    return report


def preset_migration_depths() -> tuple[tuple[str, str, int], ...]:
    """Published (backbone, params, migration depth) presets."""
    return _PRESETS


def migration_depth_for(name: str):
    """Depth for a 'Backbone-Params' name such as 'LLaVA-1.5-7B'; None if unknown."""
    for backbone, size, depth in _PRESETS:
        if f"{backbone}-{size}" == name:
            return depth
    return None


CSV_COLUMNS = tuple(f.name for cls in (CostParams, CostReport) for f in fields(cls))


def csv_row(params: CostParams) -> str:
    """One sweep row: the fields of `params`, then those of its cost report."""
    report = cost_report(params)
    return ",".join(str(getattr(obj, f.name)) for obj in (params, report) for f in fields(obj))
