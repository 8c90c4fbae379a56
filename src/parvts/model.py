"""Desk-scale decoder-only transformer with an explicit KV cache.

The block is pre-RMS-norm with rotary attention and a SiLU-gated MLP, no
biases and no dropout, all in float64 so reference implementations can be
matched to tight tolerances. Layer execution is exposed as an explicit
range so schedulers can intervene mid-stack, and rows always carry their
original position in the full sequence layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidMaskError
from .numerics import (
    RngState,
    masked_softmax_rows,
    rms_norm_rows,
    rope_rotate_heads,
    seeded_uniform,
)


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    hidden_dim: int
    num_heads: int
    mlp_dim: int
    vocab_size: int
    max_positions: int
    master_seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise InvalidArgumentError("num_layers must be >= 1")
        if min(self.hidden_dim, self.num_heads, self.mlp_dim, self.max_positions) < 1:
            raise InvalidArgumentError("all dimensions must be >= 1")
        if self.vocab_size < 2:
            raise InvalidArgumentError("vocab_size must be >= 2")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidArgumentError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if (self.hidden_dim // self.num_heads) % 2 != 0:
            raise InvalidArgumentError("head dimension must be even for rotary encoding")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass(frozen=True)
class SequenceLayout:
    """Half-open spans of the system / visual / question segments.

    Spans are contiguous, ordered system < visual < question, and cover
    [0, output_start); generated tokens occupy positions >= output_start.
    """

    system_span: tuple[int, int]
    visual_span: tuple[int, int]
    question_span: tuple[int, int]
    output_start: int

    def __post_init__(self):
        s, v, q = self.system_span, self.visual_span, self.question_span
        if s[0] != 0 or s[1] != v[0] or v[1] != q[0] or q[1] != self.output_start:
            raise InvalidArgumentError(
                "spans must be contiguous, ordered system < visual < question"
            )
        if s[0] > s[1] or v[0] > v[1] or q[0] > q[1]:
            raise InvalidArgumentError("spans must be non-decreasing ranges")

    @classmethod
    def from_counts(cls, num_system: int, num_visual: int, num_question: int):
        a, b = num_system, num_system + num_visual
        c = b + num_question
        return cls((0, a), (a, b), (b, c), c)

    @property
    def num_visual(self) -> int:
        return self.visual_span[1] - self.visual_span[0]

    @property
    def total_prefill(self) -> int:
        return self.output_start

    def system_positions(self) -> np.ndarray:
        return np.arange(*self.system_span, dtype=np.int64)

    def visual_positions(self) -> np.ndarray:
        return np.arange(*self.visual_span, dtype=np.int64)

    def question_positions(self) -> np.ndarray:
        return np.arange(*self.question_span, dtype=np.int64)


class KVCache:
    """Per-layer store of rotary-encoded keys and raw values, tagged with positions.

    Each layer holds positions/keys/values arrays with spare capacity plus a
    length; the accessors return views of the first `length` rows. An append
    writes in place and, when capacity runs out, moves the rows into arrays of
    twice the capacity (the first append allocates exactly what it needs), so
    a view taken earlier keeps its shape and contents. Positions within a
    layer are strictly increasing; appends must respect that order.
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self._positions = [np.empty(0, dtype=np.int64) for _ in range(num_layers)]
        self._keys = [np.empty((0, num_heads, head_dim)) for _ in range(num_layers)]
        self._values = [np.empty((0, num_heads, head_dim)) for _ in range(num_layers)]
        self._lengths = [0] * num_layers

    def _reserve(self, layer: int, rows: int):
        capacity = self._positions[layer].shape[0]
        if rows <= capacity:
            return
        length = self._lengths[layer]
        for store in (self._positions, self._keys, self._values):
            old = store[layer]
            grown = np.empty((max(rows, 2 * capacity),) + old.shape[1:], dtype=old.dtype)
            grown[:length] = old[:length]
            store[layer] = grown

    def append(self, layer: int, positions, keys, values):
        positions = np.asarray(positions, dtype=np.int64)
        length = self._lengths[layer]
        end = length + positions.size
        if positions.size and (
            (length and positions[0] <= self._positions[layer][length - 1])
            or np.any(np.diff(positions) <= 0)
        ):
            raise InvalidArgumentError(
                f"cache positions at layer {layer} must stay strictly increasing"
            )
        rows = (positions.size, self.num_heads, self.head_dim)
        if np.shape(keys) != rows or np.shape(values) != rows:
            raise InvalidArgumentError(
                f"keys and values at layer {layer} must have shape {rows}"
            )
        self._reserve(layer, end)
        self._positions[layer][length:end] = positions
        self._keys[layer][length:end] = keys
        self._values[layer][length:end] = values
        self._lengths[layer] = end

    def positions(self, layer: int) -> np.ndarray:
        return self._positions[layer][: self._lengths[layer]]

    def keys(self, layer: int) -> np.ndarray:
        return self._keys[layer][: self._lengths[layer]]

    def values(self, layer: int) -> np.ndarray:
        return self._values[layer][: self._lengths[layer]]

    def entry_counts(self) -> list[int]:
        return list(self._lengths)

    def max_position(self):
        tops = [int(pos[-1]) for pos in map(self.positions, range(self.num_layers)) if pos.size]
        return max(tops) if tops else None

    def all_positions(self) -> np.ndarray:
        return np.unique(np.concatenate(list(map(self.positions, range(self.num_layers)))))

    def drop_positions(self, drop) -> "KVCache":
        """Copy of the cache with every entry at a dropped position removed."""
        drop = np.asarray(drop, dtype=np.int64)
        out = KVCache(self.num_layers, self.num_heads, self.head_dim)
        for layer in range(self.num_layers):
            pos = self.positions(layer)
            keep = ~np.isin(pos, drop)
            out._positions[layer] = pos[keep]
            out._keys[layer] = self.keys(layer)[keep]
            out._values[layer] = self.values(layer)[keep]
            out._lengths[layer] = out._positions[layer].size
        return out

    def check_invariants(self, pruned=()):
        """Raise InvalidArgumentError naming the first layer at fault.

        A layer is at fault if its positions do not strictly increase, its keys
        or values differ from them in row count, or it holds a `pruned` position.
        """
        pruned = np.asarray(pruned, dtype=np.int64)
        for layer in range(self.num_layers):
            pos = self.positions(layer)
            if np.any(np.diff(pos) <= 0):
                problem = "positions not strictly increasing"
            elif self.keys(layer).shape[0] != pos.size or self.values(layer).shape[0] != pos.size:
                problem = "keys/values rows differ from positions"
            elif np.isin(pos, pruned).any():
                problem = "pruned position cached"
            else:
                continue
            raise InvalidArgumentError(f"cache layer {layer}: {problem}")


@dataclass(frozen=True)
class LayerWeights:
    attn_gain: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    mlp_gain: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]
    final_gain: np.ndarray
    lm_head: np.ndarray

    def parameter_count(self) -> int:
        count = self.embedding.size + self.final_gain.size + self.lm_head.size
        for lw in self.layers:
            count += sum(
                getattr(lw, name).size
                for name in (
                    "attn_gain", "w_q", "w_k", "w_v", "w_o",
                    "mlp_gain", "w_gate", "w_up", "w_down",
                )
            )
        return count

    def parameter_checksum(self) -> float:
        total = float(np.sum(self.embedding) + np.sum(self.final_gain) + np.sum(self.lm_head))
        for lw in self.layers:
            for name in ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down"):
                total += float(np.sum(getattr(lw, name)))
        return total

    def new_cache(self) -> KVCache:
        return KVCache(self.config.num_layers, self.config.num_heads, self.config.head_dim)


def build_model(config: ModelConfig) -> Model:
    """Seed every weight matrix from the master seed in a fixed draw order."""
    d, m, v = config.hidden_dim, config.mlp_dim, config.vocab_size
    rng = RngState(config.master_seed)

    def draw(rows, cols, fan_in):
        return seeded_uniform(rng, rows, cols, 1.0 / np.sqrt(fan_in))

    embedding = draw(v, d, d)  # table rows feed d-wide activations
    layers = []
    for _ in range(config.num_layers):
        layers.append(
            LayerWeights(
                attn_gain=np.ones(d),
                w_q=draw(d, d, d),
                w_k=draw(d, d, d),
                w_v=draw(d, d, d),
                w_o=draw(d, d, d),
                mlp_gain=np.ones(d),
                w_gate=draw(d, m, d),
                w_up=draw(d, m, d),
                w_down=draw(m, d, m),
            )
        )
    final_gain = np.ones(d)
    lm_head = draw(d, v, d)
    return Model(config, embedding, tuple(layers), final_gain, lm_head)


def embed(model: Model, token_ids) -> np.ndarray:
    """Embedding-table rows for the given ids, one row per token."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= model.config.vocab_size):
        raise InvalidArgumentError("token id out of vocabulary range")
    if ids.size == 0:
        return np.empty((0, model.config.hidden_dim), dtype=np.float64)
    return model.embedding[ids].copy()


def causal_mask(positions) -> np.ndarray:
    """allowed[q, k] iff position[k] <= position[q]."""
    pos = np.asarray(positions, dtype=np.int64)
    return pos[None, :] <= pos[:, None]


def validate_mask(mask, positions):
    """Check causality against original positions and non-empty query rows."""
    mask = np.asarray(mask, dtype=bool)
    pos = np.asarray(positions, dtype=np.int64)
    if mask.shape != (pos.size, pos.size):
        raise InvalidArgumentError("mask shape must be (rows, rows)")
    if np.any(mask & (pos[None, :] > pos[:, None])):
        raise InvalidMaskError("mask allows attention to a future position")
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise InvalidMaskError(f"query row {bad} has no allowed key")


def validate_positions(positions, max_positions: int):
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size and (not np.all(np.diff(pos) > 0)):
        raise InvalidArgumentError("positions must be strictly increasing")
    if pos.size and (pos.min() < 0 or pos.max() >= max_positions):
        raise InvalidArgumentError("position outside [0, max_positions)")


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    rows, dim = x.shape
    return x.reshape(rows, num_heads, dim // num_heads)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    rows, heads, head_dim = x.shape
    return x.reshape(rows, heads * head_dim)


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def run_layers(
    model: Model,
    hidden: np.ndarray,
    positions,
    layer_range: tuple[int, int],
    mask,
    cache: KVCache | None = None,
    record_cache: bool = False,
) -> np.ndarray:
    """Advance `hidden` through layers first..last (1-based, inclusive).

    Attention is computed among the active rows only, under `mask`; queries
    and keys are rotary-encoded at the rows' original positions and scaled by
    1/sqrt(head_dim). With record_cache set, each layer appends its keys and
    values for all active rows to `cache`, tagged with those positions.
    """
    first, last = layer_range
    if first > last:
        return hidden
    cfg = model.config
    if first < 1 or last > cfg.num_layers:
        raise InvalidArgumentError(
            f"layer range {layer_range} outside [1, {cfg.num_layers}]"
        )
    positions = np.asarray(positions, dtype=np.int64)
    validate_positions(positions, cfg.max_positions)
    if hidden.shape != (positions.size, cfg.hidden_dim):
        raise InvalidArgumentError("hidden rows must match positions")
    validate_mask(mask, positions)
    mask = np.asarray(mask, dtype=bool)

    h = hidden
    scale = 1.0 / np.sqrt(cfg.head_dim)
    for layer_index in range(first, last + 1):
        lw = model.layers[layer_index - 1]
        normed = rms_norm_rows(h, lw.attn_gain)
        q = rope_rotate_heads(_split_heads(normed @ lw.w_q, cfg.num_heads), positions)
        k = rope_rotate_heads(_split_heads(normed @ lw.w_k, cfg.num_heads), positions)
        v = _split_heads(normed @ lw.w_v, cfg.num_heads)
        ctx = np.empty_like(q)
        for head in range(cfg.num_heads):
            scores = (q[:, head, :] @ k[:, head, :].T) * scale
            weights = masked_softmax_rows(scores, mask)
            ctx[:, head, :] = weights @ v[:, head, :]
        h = h + _merge_heads(ctx) @ lw.w_o
        normed = rms_norm_rows(h, lw.mlp_gain)
        h = h + (_silu(normed @ lw.w_gate) * (normed @ lw.w_up)) @ lw.w_down
        if record_cache:
            if cache is None:
                raise InvalidArgumentError("record_cache requires a cache")
            cache.append(layer_index - 1, positions, k, v)
    return h


def output_logits(model: Model, hidden: np.ndarray) -> np.ndarray:
    """Final norm plus untied output projection, row-wise."""
    return rms_norm_rows(hidden, model.final_gain) @ model.lm_head


def decode_step(model: Model, cache: KVCache, token_id: int, position: int) -> np.ndarray:
    """Run one token through all layers against the cache; returns vocab logits.

    At every layer the token's own key and value are appended to the cache
    first, and the token then attends to every cached entry, itself included.
    """
    cfg = model.config
    if cache.num_layers != cfg.num_layers:
        raise InvalidArgumentError("cache layer count does not match the model")
    top = cache.max_position()
    if top is not None and position <= top:
        raise InvalidArgumentError(
            f"position {position} conflicts with cached position {top}"
        )
    if position < 0 or position >= cfg.max_positions:
        raise InvalidArgumentError("position outside [0, max_positions)")

    h = embed(model, [token_id])
    pos_arr = np.array([position], dtype=np.int64)
    scale = 1.0 / np.sqrt(cfg.head_dim)
    for layer_index in range(cfg.num_layers):
        lw = model.layers[layer_index]
        normed = rms_norm_rows(h, lw.attn_gain)
        q = rope_rotate_heads(_split_heads(normed @ lw.w_q, cfg.num_heads), pos_arr)
        k = rope_rotate_heads(_split_heads(normed @ lw.w_k, cfg.num_heads), pos_arr)
        v = _split_heads(normed @ lw.w_v, cfg.num_heads)
        cache.append(layer_index, pos_arr, k, v)
        keys, values = cache.keys(layer_index), cache.values(layer_index)
        # one score row per head, so a single softmax call covers the layer
        scores = np.empty((cfg.num_heads, keys.shape[0]))
        for head in range(cfg.num_heads):
            scores[head : head + 1] = (q[:, head, :] @ keys[:, head, :].T) * scale
        weights = masked_softmax_rows(scores, np.ones(scores.shape, dtype=bool))
        ctx = np.empty((1, cfg.num_heads, cfg.head_dim))
        for head in range(cfg.num_heads):
            ctx[:, head, :] = weights[head : head + 1] @ values[:, head, :]
        h = h + _merge_heads(ctx) @ lw.w_o
        normed = rms_norm_rows(h, lw.mlp_gain)
        h = h + (_silu(normed @ lw.w_gate) * (normed @ lw.w_up)) @ lw.w_down
    return output_logits(model, h)[0]


def greedy_decode(model: Model, cache: KVCache, start_token: int, steps: int) -> list[int]:
    """Feed start_token, then repeatedly the argmax token (ties: lower id).

    Performs exactly `steps` decode steps and returns their argmax outputs.
    """
    if steps < 0:
        raise InvalidArgumentError("steps must be >= 0")
    top = cache.max_position()
    position = 0 if top is None else top + 1
    token = start_token
    out: list[int] = []
    for _ in range(steps):
        logits = decode_step(model, cache, token, position)
        token = int(np.argmax(logits))
        out.append(token)
        position += 1
    return out
