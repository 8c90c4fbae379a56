"""Deterministic dense linear algebra for the toy transformer.

Everything runs in float64. Matrices are plain 2-D numpy arrays in row-major
order; randomness comes from counter-keyed Philox streams so that the same
(seed, counter) pair yields the same bits on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidMaskError

RMS_NORM_EPS = 1e-5
ROPE_THETA_BASE = 10000.0


@dataclass
class RngState:
    """Seed plus an explicit draw counter.

    Each draw keys a fresh Philox generator with (seed, counter) and then
    advances the counter, so streams never overlap and replaying a draw
    sequence is exact.
    """

    seed: int
    counter: int = 0

    def next_generator(self) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, self.counter], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        self.counter += 1
        return gen


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with 64-bit accumulation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise InvalidArgumentError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    out = a @ b
    if not np.all(np.isfinite(out)):
        raise InvalidArgumentError("matmul produced non-finite entries")
    return out


def masked_softmax_rows(scores, mask) -> np.ndarray:
    """Row softmax over the allowed entries of `mask`; blocked entries are 0.

    Raises InvalidMaskError if any row has no allowed entry.
    """
    scores = as_matrix(scores)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise InvalidArgumentError(
            f"mask shape {mask.shape} does not match scores shape {scores.shape}"
        )
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise InvalidMaskError(f"query row {bad} has no allowed key")
    # exp(-inf) is exactly 0, so blocked entries need no second pass
    out = np.where(mask, scores, -np.inf)
    out -= out.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def rms_norm(x, gain) -> np.ndarray:
    """x / sqrt(mean(x^2) + RMS_NORM_EPS), elementwise times gain."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if x.shape != gain.shape or x.ndim != 1:
        raise InvalidArgumentError(
            f"vector/gain length mismatch: {x.shape} vs {gain.shape}"
        )
    return x / np.sqrt(np.mean(x * x) + RMS_NORM_EPS) * gain


def rms_norm_rows(x, gain) -> np.ndarray:
    """Row-wise rms_norm of a matrix against a single gain vector."""
    x = as_matrix(x)
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (x.shape[1],):
        raise InvalidArgumentError("gain length does not match row width")
    scale = 1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + RMS_NORM_EPS)
    return x * scale * gain


def rope_apply(vec, position: int) -> np.ndarray:
    """Rotate consecutive (even, odd) pairs of a head vector by position-scaled angles.

    Pair p uses frequency ROPE_THETA_BASE ** (-2p / dim); position 0 is the identity.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.size % 2 != 0:
        raise InvalidArgumentError("head dimension must be even")
    if position < 0:
        raise InvalidArgumentError("position must be non-negative")
    dim = vec.size
    freqs = ROPE_THETA_BASE ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = position * freqs
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = vec[0::2], vec[1::2]
    out = np.empty_like(vec)
    out[0::2] = even * cos - odd * sin
    out[1::2] = even * sin + odd * cos
    return out


def rope_rotate_heads(x, positions) -> np.ndarray:
    """Vectorized rope_apply over an (rows, heads, head_dim) array.

    positions holds one original token index per row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] % 2 != 0:
        raise InvalidArgumentError("expected (rows, heads, even head_dim)")
    positions = np.asarray(positions, dtype=np.float64)
    dim = x.shape[2]
    freqs = ROPE_THETA_BASE ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = positions[:, None, None] * freqs[None, None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def seeded_uniform(rng: RngState, rows: int, cols: int, scale: float) -> np.ndarray:
    """Uniform matrix on [-scale, +scale], deterministic per (seed, counter)."""
    if scale <= 0:
        raise InvalidArgumentError("scale must be positive")
    gen = rng.next_generator()
    return gen.uniform(-scale, scale, size=(rows, cols))


def seeded_integers(rng: RngState, count: int, low: int, high: int) -> np.ndarray:
    """Uniform integers in [low, high), deterministic per (seed, counter)."""
    if high <= low:
        raise InvalidArgumentError("empty integer range")
    gen = rng.next_generator()
    return gen.integers(low, high, size=count, dtype=np.int64)
