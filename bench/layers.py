"""Which parvts functions the traced run wraps, and the per-layer metrics.

A layer is a module of `parvts`. Every public function a module imports from
another parvts module is wrapped under that imported name, so each call is
seen where its caller makes it; ENTRY_POINTS adds the functions that are
called through their own module (by the benchmark or from inside it). Span
names read `<layer>.<function>@<binding site>`.

Per-request metrics divide by the number of traced requests (or commands).
"""

from __future__ import annotations

import inspect

import numpy as np

from parvts import cli, configfile, cost, harness, model, oracle, saliency, scheduler, verify

from tracing import END, NAME, PARENT, REQUEST, START, Tracer, self_times

LAYERS = ("numerics", "model", "scheduler", "saliency", "oracle", "harness",
          "cost", "verify", "cli", "configfile")
STRATEGIES = tuple(s.value for s in scheduler.Strategy)
CALLER_MODULES = (cli, configfile, harness, verify, scheduler, oracle, saliency, model)

# Per-row or per-matrix helpers; wrapping them would put tens of thousands of
# spans into every oracle call. Their time stays in their caller's self time.
SKIPPED = {"matmul", "rms_norm", "rope_apply", "rms_norm_rows", "as_matrix",
           "seeded_uniform", "seeded_integers"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_softmax(counts, span, args, kwargs, result):
    mask = np.asarray(_arg(args, kwargs, 1, "mask"))
    counts["softmax_entries"] += mask.size
    counts["softmax_allowed"] += int(np.count_nonzero(mask))


def _count_run_layers(counts, span, args, kwargs, result):
    first, last = _arg(args, kwargs, 3, "layer_range")
    rows = np.asarray(_arg(args, kwargs, 2, "positions")).size
    counts["row_layers"] += rows * max(0, last - first + 1)


def _count_decode_step(counts, span, args, kwargs, result):
    entries = _arg(args, kwargs, 1, "cache").entry_counts()
    counts["decode_entries"] += sum(entries) / len(entries)
    counts["decode_calls"] += 1


def _count_append(counts, span, args, kwargs, result):
    # Bytes the append leaves in the layer's arrays: today's concatenation
    # rewrites all of them on every call.
    cache, layer = args[0], _arg(args, kwargs, 1, "layer")
    counts["kv_append_bytes"] += (
        cache.keys(layer).nbytes + cache.values(layer).nbytes + cache.positions(layer).nbytes
    )


def _count_drop(counts, span, args, kwargs, result):
    counts["kv_entries_dropped"] += sum(args[0].entry_counts()) - sum(result.entry_counts())


def formula_row_layers(strategy: str, num_layers: int, layout, partition, cfg) -> float:
    """Sum over layers of the row count the analytic cost model assumes."""
    L, N, n = layout.total_prefill, num_layers, cfg.migration_depth
    if strategy == "Vanilla":
        return float(N * L)
    visual, keep = layout.num_visual, partition.keep_count
    text = L - visual
    if strategy in ("ParVTSBatch", "ParVTSMasked"):
        params = cost.CostParams(p=1.0 - keep / visual, n=n, N=N, L_text=text,
                                 L_img=visual, M=0, d=1, m=1)
        return n * L + (N - n) * params.reduced_length
    first = keep if strategy == "SubjectFirst" else visual - keep
    return float(n * (text + first) + (N - n) * (text + visual - first))


def executed_row_layers(strategy: str, num_layers: int, counts: dict, cfg) -> float:
    """Row-layers the run executed, summed from its phase_token_counts."""
    N, n, j = num_layers, cfg.migration_depth, cfg.joint_prefix_layers
    first_stage = "subject_stage" if strategy == "SubjectFirst" else "nonsubject_stage"
    depth = {
        "full": N, "joint_prefix": j, "branch_nonsubject": n - j,
        "branch_subject": n - j, "single_branch": n - j, "exclusive_mask": n - j,
        "continuation": N - n,
        "subject_stage": n if first_stage == "subject_stage" else N - n,
        "nonsubject_stage": n if first_stage == "nonsubject_stage" else N - n,
    }
    return float(sum(rows * depth[phase] for phase, rows in counts.items()))


def _count_run_strategy(counts, span, args, kwargs, result):
    mdl, layout = args[0], _arg(args, kwargs, 2, "layout")
    partition, cfg = _arg(args, kwargs, 3, "partition"), _arg(args, kwargs, 4, "cfg")
    strategy = cfg.strategy.value
    N = mdl.config.num_layers
    counts["rows_executed"] += executed_row_layers(strategy, N, result.phase_token_counts, cfg)
    counts["rows_formula"] += formula_row_layers(strategy, N, layout, partition, cfg)


COUNTERS = {
    "masked_softmax_rows": _count_softmax,
    "run_layers": _count_run_layers,
    "decode_step": _count_decode_step,
    "append": _count_append,
    "drop_positions": _count_drop,
    "run_strategy": _count_run_strategy,
}

# (owner, attribute, layer, binding site) for calls made through the
# function's own module.
ENTRY_POINTS = (
    (model, "validate_mask", "model", "model"),
    (model, "decode_step", "model", "model"),
    (model.KVCache, "append", "model", "KVCache"),
    (model.KVCache, "drop_positions", "model", "KVCache"),
    (scheduler, "run_strategy", "scheduler", "scheduler"),
    (scheduler, "group_exclusive_mask", "scheduler", "scheduler"),
    (saliency, "toy_cls_attention", "saliency", "saliency"),
    (saliency, "partition_topk", "saliency", "saliency"),
    (cli, "main", "cli", "cli"),
)


def bindings():
    """Every (owner, attribute, layer, site) the traced run wraps."""
    found = []
    for caller in CALLER_MODULES:
        site = caller.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(caller).items():
            if (inspect.isfunction(obj) and not attr.startswith("_") and attr not in SKIPPED
                    and obj.__module__.startswith("parvts.") and obj.__module__ != caller.__name__):
                found.append((caller, attr, obj.__module__.rsplit(".", 1)[1], site))
    return found + list(ENTRY_POINTS)


def install(tracer: Tracer):
    for owner, attr, layer, site in bindings():
        name = f"{layer}.{attr}@{site}"
        if attr == "run_strategy":  # one span name per strategy
            def name(args, kwargs, site=site):
                strategy = _arg(args, kwargs, 4, "cfg").strategy.value
                return f"scheduler.run_strategy.{strategy}@{site}"
        tracer.wrap(owner, attr, name, layer, COUNTERS.get(attr))


def layer_metrics(tracer: Tracer, traced_records, probe) -> dict:
    """Per-layer metrics of the traced cycles as {name: (value, unit)}.

    Span times are scaled by the host-speed probe, as the end-to-end ones are.
    """
    spans, counts = tracer.spans, tracer.counts
    scales = [probe.scale(s[START], s[END]) for s in spans]
    selfs = [t * k for t, k in zip(self_times(spans), scales)]
    per = max(len(traced_records), 1)

    def layer_of(span):
        return span[NAME].split(".", 1)[0]

    def func_of(span):
        return span[NAME].split("@", 1)[0]

    def total(pred, use_self=False) -> float:
        return sum(
            (selfs[i] if use_self else (s[END] - s[START]) * scales[i])
            for i, s in enumerate(spans) if pred(s)
        ) * 1e3

    def outermost(layer):
        # inclusive time of spans of `layer` not nested in another of its spans
        return lambda s: layer_of(s) == layer and (
            s[PARENT] is None or layer_of(spans[s[PARENT]]) != layer
        )

    def ms(pred, use_self=False):
        return (total(pred, use_self) / per, "ms/req")

    def fn(name):
        return lambda s: func_of(s) == name

    def ratio(num, den):
        return (counts[num] / counts[den] if counts[den] else 0.0, "ratio")

    run_ids = {r.rid for r in traced_records if r.kind == "run"}
    in_runs_oracle = total(lambda s: layer_of(s) == "oracle" and s[REQUEST] in run_ids)
    in_runs_total = total(lambda s: func_of(s) == "cli.main" and s[REQUEST] in run_ids)
    out = {
        "numerics.softmax_ms": ms(fn("numerics.masked_softmax_rows")),
        "numerics.softmax_entries": (counts["softmax_entries"] / per, "count/req"),
        "numerics.softmax_allowed_frac": ratio("softmax_allowed", "softmax_entries"),
        "numerics.rope_ms": ms(fn("numerics.rope_rotate_heads")),
        "model.run_layers_self_ms": ms(fn("model.run_layers"), use_self=True),
        "model.row_layers": (counts["row_layers"] / per, "count/req"),
        "model.validate_mask_ms": ms(fn("model.validate_mask")),
        "model.causal_mask_ms": ms(fn("model.causal_mask")),
        "model.decode_step_self_ms": ms(fn("model.decode_step"), use_self=True),
        "model.kv_append_ms": ms(fn("model.append")),
        "model.kv_append_bytes": (counts["kv_append_bytes"] / per, "B/req"),
        "model.cache_entries_mean": (ratio("decode_entries", "decode_calls")[0], "entries"),
        "model.kv_drop_ms": ms(fn("model.drop_positions")),
        "model.kv_entries_dropped": (counts["kv_entries_dropped"] / per, "count/req"),
        "scheduler.self_ms": ms(lambda s: layer_of(s) == "scheduler", use_self=True),
        "scheduler.group_mask_ms": ms(fn("scheduler.group_exclusive_mask")),
        "scheduler.rows_over_formula": ratio("rows_executed", "rows_formula"),
        "saliency.ms": ms(outermost("saliency")),
        "oracle.two_pass_ms": ms(outermost("oracle")),
        "oracle.two_pass_calls": (
            sum(1 for s in spans if func_of(s) == "oracle.oracle_two_pass") / per, "count/req"),
        "oracle.share_of_run": (in_runs_oracle / in_runs_total if in_runs_total else 0.0, "ratio"),
        "harness.run_experiment_self_ms": ms(fn("harness.run_experiment"), use_self=True),
        "harness.decode_ms": ms(lambda s: s[NAME] == "model.greedy_decode@harness"),
        "harness.serialize_ms": ms(fn("harness.serialize_report")),
        "cost.ms": ms(outermost("cost")),
        "verify.self_ms": ms(lambda s: layer_of(s) == "verify", use_self=True),
        "cli.self_ms": ms(fn("cli.main"), use_self=True),
        "configfile.load_ms": ms(outermost("configfile")),
        "trace.spans": (len(spans) / per, "count/req"),
    }
    for strategy in STRATEGIES:
        name = f"scheduler.run_strategy.{strategy}"
        calls = sum(1 for s in spans if func_of(s) == name)
        out[f"scheduler.prefill_ms.{strategy}"] = (
            total(fn(name)) / calls if calls else 0.0, "ms/call")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tracer.errors[layer], "count")
    return out
