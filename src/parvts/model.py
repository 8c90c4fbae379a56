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
    _rms_norm_rows,
    masked_softmax_rows,
    rms_norm_rows,
    rope_rotate_heads,
    rope_tables,
    seeded_uniform,
    softmax_rows,
    softmax_tiles,
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
        for name in ("num_layers", "hidden_dim", "num_heads", "mlp_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")
        if self.vocab_size < 2:
            raise InvalidArgumentError("vocab_size must be >= 2")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidArgumentError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if (self.hidden_dim // self.num_heads) % 2 != 0:
            raise InvalidArgumentError(
                f"hidden_dim {self.hidden_dim} / num_heads {self.num_heads} "
                "must be even for rotary encoding"
            )

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass(frozen=True)
class SequenceLayout:
    """Token counts of the system, visual and question segments.

    The segments are contiguous, ordered system < visual < question, and
    cover [0, output_start); generated tokens occupy positions >= output_start.
    """

    num_system: int
    num_visual: int
    num_question: int

    def __post_init__(self):
        for name in ("num_system", "num_visual", "num_question"):
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")

    @classmethod  # alias kept only because bench/ reads it
    def from_counts(cls, num_system: int, num_visual: int, num_question: int):
        return cls(num_system, num_visual, num_question)

    @property
    def visual_span(self) -> tuple[int, int]:
        return self.num_system, self.num_system + self.num_visual

    @property
    def output_start(self) -> int:
        return self.num_system + self.num_visual + self.num_question

    total_prefill = output_start  # alias kept only because bench/ reads it

    def system_positions(self) -> np.ndarray:
        return np.arange(self.num_system, dtype=np.int64)

    def visual_positions(self) -> np.ndarray:
        return np.arange(*self.visual_span, dtype=np.int64)

    def question_positions(self) -> np.ndarray:
        return np.arange(self.visual_span[1], self.output_start, dtype=np.int64)


class KVCache:
    """Per-layer store of rotary-encoded keys and raw values, tagged with positions.

    Each layer holds positions/keys/values arrays with spare capacity plus a
    length; the accessors return views of the first `length` rows. An append
    writes in place and, when capacity runs out, moves the rows into arrays of
    twice the capacity (the first append allocates exactly what it needs), so
    a view taken earlier keeps its shape and contents. Positions within a
    layer are strictly increasing; appends must respect that order.

    Keys and values are (capacity, heads, head_dim) arrays in head-major
    memory: each is the transposed view of a (heads, capacity, head_dim)
    buffer (`_buffer`), so every head's rows form one contiguous block and a
    decode step's score and AV products read each head's block in one
    sweep. Only the strides differ from row-major storage: a product makes
    the same BLAS call on the same values with another leading dimension,
    so no output bit depends on the layout.
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int):
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self._positions = [np.empty(0, dtype=np.int64) for _ in range(num_layers)]
        self._keys = [self._buffer(0) for _ in range(num_layers)]
        self._values = [self._buffer(0) for _ in range(num_layers)]
        self._lengths = [0] * num_layers

    def _buffer(self, capacity: int) -> np.ndarray:
        """Uninitialised (capacity, heads, head_dim) view of head-major memory."""
        return np.empty((self.num_heads, capacity, self.head_dim)).transpose(1, 0, 2)

    def _reserve(self, layer: int, rows: int):
        capacity = self._positions[layer].shape[0]
        if rows <= capacity:
            return
        length = self._lengths[layer]
        capacity = max(rows, 2 * capacity)
        positions = np.empty(capacity, dtype=np.int64)
        positions[:length] = self._positions[layer][:length]
        self._positions[layer] = positions
        for store in (self._keys, self._values):
            grown = self._buffer(capacity)
            grown[:length] = store[layer][:length]
            store[layer] = grown

    def append(self, layer: int, positions, keys, values):
        positions = np.asarray(positions, dtype=np.int64)
        length = self._lengths[layer]
        end = length + positions.size
        # a decode step appends one row, which needs only the scalar check
        if positions.size and (
            (length and positions[0] <= self._positions[layer][length - 1])
            or (positions.size > 1 and np.any(positions[1:] <= positions[:-1]))
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
        """Exact-size copy of the cache with every entry at a dropped position removed."""
        drop = np.asarray(drop, dtype=np.int64)
        out = KVCache(self.num_layers, self.num_heads, self.head_dim)
        for layer in range(self.num_layers):
            pos = self.positions(layer)
            kept = np.flatnonzero(~np.isin(pos, drop))
            out._positions[layer] = pos[kept]
            for source, target in ((self._keys, out._keys), (self._values, out._values)):
                target[layer] = out._buffer(kept.size)
                # gathered head by head straight into the new buffer: with its
                # default mode="raise" np.take fills a temporary copy first, and
                # the indices are in range, so "clip" changes nothing else
                np.take(source[layer].transpose(1, 0, 2), kept, axis=1,
                        out=target[layer].transpose(1, 0, 2), mode="clip")
            out._lengths[layer] = kept.size
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
    return model.embedding[ids].copy()


def _check_increasing(pos: np.ndarray):
    if (pos[1:] <= pos[:-1]).any():
        raise InvalidArgumentError("positions must be strictly increasing")


def causal_mask(positions) -> np.ndarray:
    """allowed[q, k] iff position[k] <= position[q], for strictly increasing positions.

    Raises InvalidArgumentError on positions that do not strictly increase.
    """
    pos = np.asarray(positions, dtype=np.int64)
    _check_increasing(pos)
    return np.tri(pos.size, dtype=bool)


def validate_mask(mask, positions) -> list[tuple[int, int, int, int]]:
    """Check a mask over strictly increasing positions; return its softmax_tiles.

    Raises InvalidArgumentError on a shape other than (rows, rows), then on
    positions that do not strictly increase; then InvalidMaskError if a row
    may attend to a later position, then if a row has no allowed key.
    """
    mask = np.asarray(mask, dtype=bool)
    pos = np.asarray(positions, dtype=np.int64)
    if mask.shape != (pos.size, pos.size):
        raise InvalidArgumentError("mask shape must be (rows, rows)")
    _check_increasing(pos)
    tiles = softmax_tiles(mask)
    # Later positions are later columns, so a tile's rows may see no column
    # past the tile, nor one above the diagonal of the tile's diagonal block.
    above = ~np.tri(tiles[0][1] if tiles else 0, dtype=bool)  # the first tile is the largest
    for start, stop, _, end in tiles:
        size = stop - start
        if end > stop or (mask[start:stop, start:stop] & above[:size, :size]).any():
            raise InvalidMaskError("mask allows attention to a future position")
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise InvalidMaskError(f"query row {bad} has no allowed key")
    return tiles


def validate_positions(positions, max_positions: int):
    pos = np.asarray(positions, dtype=np.int64)
    _check_increasing(pos)
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


def _attention(q: np.ndarray, keys: np.ndarray, values: np.ndarray, mask, tiles) -> np.ndarray:
    """Per-head softmax(q k^T / sqrt(head_dim)) v under `mask` (None allows every key).

    q is (rows, heads, head_dim); keys and values are (keys, heads, head_dim);
    `tiles` are softmax_tiles(mask) (None without a mask). Without a mask
    (a decode step) every head goes through one softmax_rows call with its
    score rows stacked, so the step has no mask to build or check; with a
    mask each head keeps its own rows x keys score matrix and softmax call.
    A group's scores, and then its AV products, come from one stacked
    np.matmul over its heads, because at decode sizes (d = 64, one row)
    numpy's per-call dispatch costs more than the products. A stacked matmul
    still makes one BLAS call per head, with the shape and strides of a
    per-head call, and the softmax runs in place on the score buffer. Query
    rows are never split, so neither the grouping, the stacking nor the
    softmax's row tiles change a bit. A decode step's keys and values are
    KVCache views of head-major memory, so each head's K and V is one
    contiguous block; the BLAS call is the one row-major storage would make
    with another leading dimension, and its bits are the same.
    """
    rows, heads, head_dim = q.shape
    num_keys = keys.shape[0]
    scale = 1.0 / np.sqrt(head_dim)
    group = heads if mask is None else 1
    # head-major views: (heads, rows, head_dim), (heads, head_dim, keys), (heads, keys, head_dim)
    q_heads = q.transpose(1, 0, 2)
    k_heads = keys.transpose(1, 2, 0)
    v_heads = values.transpose(1, 0, 2)
    scores = np.empty((group, rows, num_keys))
    ctx = np.empty((heads, rows, head_dim))
    block = scores.reshape(group * rows, num_keys)
    for first in range(0, heads, group):
        members = slice(first, first + group)
        np.matmul(q_heads[members], k_heads[members], out=scores)
        # one contiguous multiply beats scaling each tile's columns :end
        block *= scale
        if mask is None:
            softmax_rows(block, out=block)
        else:
            masked_softmax_rows(block, mask, out=block, tiles=tiles)
        np.matmul(scores, v_heads[members], out=ctx[members])
    return ctx.transpose(1, 0, 2)


def _layer(
    model: Model,
    layer: int,
    h: np.ndarray,
    positions: np.ndarray,
    tables,
    mask,
    tiles,
    cache: KVCache | None,
) -> np.ndarray:
    """One decoder block (0-based `layer`) over the rows of `h`.

    `tables` is rope_tables(positions, head_dim). The rows' keys and values
    are appended to `cache` when one is given. With a `mask` (and its
    `tiles`, as validate_mask returns them) the rows attend among themselves
    under it; without one they attend to every entry the cache holds at this
    layer, their own included.
    """
    lw = model.layers[layer]
    heads = model.config.num_heads
    normed = _rms_norm_rows(h, lw.attn_gain)
    # one rotary call covers q and k, stacked along the head axis
    qk = rope_rotate_heads(
        _split_heads(np.concatenate([normed @ lw.w_q, normed @ lw.w_k], axis=1), 2 * heads),
        positions,
        tables,
    )
    q, k = qk[:, :heads], qk[:, heads:]
    v = _split_heads(normed @ lw.w_v, heads)
    if cache is not None:
        cache.append(layer, positions, k, v)
    if mask is None:
        k, v = cache.keys(layer), cache.values(layer)
    h = h + _merge_heads(_attention(q, k, v, mask, tiles)) @ lw.w_o
    normed = _rms_norm_rows(h, lw.mlp_gain)
    return h + (_silu(normed @ lw.w_gate) * (normed @ lw.w_up)) @ lw.w_down


def run_layers(
    model: Model,
    hidden: np.ndarray,
    positions,
    layer_range: tuple[int, int],
    mask,
    cache: KVCache | None = None,
) -> np.ndarray:
    """Advance `hidden` through layers first..last (1-based, inclusive).

    Attention is computed among the active rows only, under `mask`; queries
    and keys are rotary-encoded at the rows' original positions and scaled by
    1/sqrt(head_dim). When a `cache` is given, each layer appends its keys and
    values for all active rows to it, tagged with those positions.
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
    if positions.size == 0:
        raise InvalidArgumentError("run_layers needs at least one row")
    validate_positions(positions, cfg.max_positions)
    if hidden.shape != (positions.size, cfg.hidden_dim):
        raise InvalidArgumentError("hidden rows must match positions")
    tiles = validate_mask(mask, positions)
    mask = np.asarray(mask, dtype=bool)
    hidden = np.asarray(hidden, dtype=np.float64)  # the layers' RMS norms skip this check
    tables = rope_tables(positions, cfg.head_dim)

    for layer in range(first - 1, last):
        hidden = _layer(model, layer, hidden, positions, tables, mask, tiles, cache)
    return hidden


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
    tables = rope_tables(pos_arr, cfg.head_dim)
    for layer in range(cfg.num_layers):
        h = _layer(model, layer, h, pos_arr, tables, None, None, cache)
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
