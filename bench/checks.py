"""Output checks that decide whether a benchmark request failed.

A request fails if it raises, if any logits it produced are not finite, if
its KV cache breaks the structural invariant (which positions each layer
holds, in increasing order, none of them pruned), or if a spot check finds
that its decoded ids differ from a cache-free recomputation through
`run_layers`. Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from parvts import model as pm

PARALLEL = ("ParVTSBatch", "ParVTSMasked")


def _groups(layout, partition):
    base = layout.visual_span[0]
    return base + partition.subject_indices, base + partition.nonsubject_indices


def expected_cache(strategy: str, layout, partition, n: int, num_layers: int, dec_pos):
    """Per layer, (positions the cache must hold, positions it must not hold)."""
    sys_pos, q_pos = layout.system_positions(), layout.question_positions()
    if strategy == "Vanilla":
        full = np.arange(layout.total_prefill, dtype=np.int64)
        return [(np.concatenate([full, dec_pos]), full[:0])] * num_layers
    sub, non = _groups(layout, partition)
    if strategy in PARALLEL:
        keep = np.concatenate([sys_pos, sub, q_pos, dec_pos])
        return [(keep, non)] * num_layers
    first, second = (sub, non) if strategy == "SubjectFirst" else (non, sub)
    stage1 = np.concatenate([sys_pos, first, q_pos, dec_pos])
    stage2 = np.concatenate([sys_pos, second, q_pos, dec_pos])
    return [(stage1, second) if layer < n else (stage2, first) for layer in range(num_layers)]


def cache_problems(cache, expected) -> list[str]:
    problems = []
    for layer, (want, pruned) in enumerate(expected):
        pos = cache.positions(layer)
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            problems.append(f"layer {layer}: positions not strictly increasing")
        if cache.keys(layer).shape[0] != pos.size or cache.values(layer).shape[0] != pos.size:
            problems.append(f"layer {layer}: keys/values rows differ from positions")
        if pos.size != want.size:
            problems.append(f"layer {layer}: {pos.size} entries, expected {want.size}")
        if np.isin(pos, pruned).any():
            problems.append(f"layer {layer}: pruned position cached")
        elif pos.size == want.size and not np.array_equal(pos, want):
            problems.append(f"layer {layer}: cached positions differ from the schedule")
    return problems


def logits_problems(logits) -> list[str]:
    return [] if np.all(np.isfinite(logits)) else ["non-finite logits"]


def _with_decode(model, h, pos, dec_h, dec_pos, layers, mask, dec_sees):
    """Run prompt rows and decode rows together; decode rows see each other
    causally and the prompt rows where `dec_sees` holds."""
    rows = np.concatenate([pos, dec_pos])
    full = np.zeros((rows.size, rows.size), dtype=bool)
    full[: pos.size, : pos.size] = mask
    full[pos.size :, : pos.size] = dec_sees[None, :]
    full[pos.size :, pos.size :] = pm.causal_mask(dec_pos)
    out = pm.run_layers(model, np.vstack([h, dec_h]), rows, layers, full)
    return out[: pos.size], out[pos.size :]


def recompute_ids(model, token_ids, layout, partition, strategy: str, n: int, j: int,
                  alpha: float, beta: float, fed) -> list[int]:
    """Argmax ids of a prefill plus teacher-forced decode, without a cache.

    `fed` are the tokens the decode loop fed (the first argmax, then each
    decoded id but the last). Returns the argmax of the last prompt row
    followed by that of every decode row; a correct cached run produced
    exactly these ids. Every decode row sees what the pruned cache would
    hold at that layer and nothing else.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    N = model.config.num_layers
    full = np.arange(ids.size, dtype=np.int64)
    sys_pos, q_pos = layout.system_positions(), layout.question_positions()
    num_s, num_q = sys_pos.size, q_pos.size
    dec_pos = layout.output_start + np.arange(len(fed), dtype=np.int64)
    d = pm.embed(model, fed)

    def run(h, pos, layers, mask=None, sees=None):
        mask = pm.causal_mask(pos) if mask is None else mask
        sees = np.ones(pos.size, dtype=bool) if sees is None else sees
        return _with_decode(model, h, pos, d, dec_pos, layers, mask, sees)

    if strategy == "Vanilla":
        h, d = run(pm.embed(model, ids), full, (1, N))
        return _argmax_ids(model, h, d)

    sub, non = _groups(layout, partition)
    if strategy in PARALLEL:
        sees = ~np.isin(full, non)
        h, d = run(pm.embed(model, ids), full, (1, j), sees=sees)
        if strategy == "ParVTSMasked":
            exclusive = pm.causal_mask(full)
            in_sub, in_non = np.isin(full, sub), np.isin(full, non)
            exclusive[np.ix_(in_sub, in_non)] = False
            exclusive[np.ix_(in_non, in_sub)] = False
            h, d = run(h, full, (j + 1, n), exclusive, sees)
            keep_pos, retained = full[sees], h[sees]
        else:
            branch_sub = np.concatenate([sys_pos, sub, q_pos])
            branch_non = np.concatenate([sys_pos, non, q_pos])
            if sub.size and non.size:
                h_sub, d = run(h[branch_sub], branch_sub, (j + 1, n))
                h_non = pm.run_layers(
                    model, h[branch_non], branch_non, (j + 1, n), pm.causal_mask(branch_non)
                )
                if num_q:
                    h_sub[-num_q:] = alpha * h_non[-num_q:] + beta * h_sub[-num_q:]
                keep_pos, retained = branch_sub, h_sub
            else:
                sole = branch_sub if sub.size else branch_non
                sole_sees = ~np.isin(sole, non)
                h_sole, d = run(h[sole], sole, (j + 1, n), sees=sole_sees)
                keep_pos, retained = sole[sole_sees], h_sole[sole_sees]
        h, d = run(retained, keep_pos, (n + 1, N))
        return _argmax_ids(model, h, d)

    first, second = (sub, non) if strategy == "SubjectFirst" else (non, sub)
    stage1 = np.concatenate([sys_pos, first, q_pos])
    h1, d = run(pm.embed(model, ids[stage1]), stage1, (1, n))
    stage2 = np.concatenate([sys_pos, second, q_pos])
    h2 = np.vstack([h1[:num_s], pm.embed(model, ids[second]), h1[h1.shape[0] - num_q :]])
    h, d = run(h2, stage2, (n + 1, N))
    return _argmax_ids(model, h, d)


def _argmax_ids(model, h, d) -> list[int]:
    logits = pm.output_logits(model, np.vstack([h[-1:], d]))
    return [int(t) for t in np.argmax(logits, axis=1)]


def decode_problems(model, request, outcome) -> list[str]:
    """Spot check: the ids a served request decoded against recompute_ids."""
    fed = [outcome.start] + outcome.decoded[:-1]
    cfg = request.schedule
    want = recompute_ids(
        model, request.token_ids, request.layout, outcome.partition, request.strategy,
        cfg.migration_depth, cfg.joint_prefix_layers, cfg.alpha, cfg.beta, fed,
    )
    got = [outcome.start] + outcome.decoded
    if want == got:
        return []
    first = next(i for i, (a, b) in enumerate(zip(want, got)) if a != b)
    return [f"decoded id {first} is {got[first]}, cache-free recomputation gives {want[first]}"]
