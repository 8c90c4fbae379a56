"""Deterministic dense linear algebra for the toy transformer.

Everything runs in float64. Matrices are plain 2-D numpy arrays in row-major
order; randomness comes from counter-keyed Philox streams so that the same
(seed, counter) pair yields the same bits on every platform.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidMaskError

RMS_NORM_EPS = 1e-5
ROPE_THETA_BASE = 10000.0
# Row tiles of masked_softmax_rows: 16, 32 and 128 rows were slower at
# L = 1248. Up to SOFTMAX_UNTILED_ROWS rows the per-tile calls cost more than
# the skipped columns save (a causal 192 x 192 call breaks even).
SOFTMAX_TILE_ROWS = 64
SOFTMAX_UNTILED_ROWS = 3 * SOFTMAX_TILE_ROWS
# From this many rows a tiled call hands its later tiles to a second core;
# below it the hand-off saves little or costs time (a causal call of 256 rows
# ran 16 % slower split). Tiles read no row but their own, so the split moves
# no bit.
SOFTMAX_PARALLEL_ROWS = 512


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


def _softmax_tile(tile, part):
    """Row softmax of `part`, the leading columns of `tile`, in place.

    The columns of `tile` past `part` must already be 0 and blocked entries of
    `part` -inf (exp(-inf) is exactly 0, so they need no second pass). Each row
    is divided by its sum over the full width of `tile`: numpy's pairwise sum
    groups the terms by row length, so a sum over `part` alone would change
    bits.
    """
    part -= part.max(axis=-1, keepdims=True)
    np.exp(part, out=part)
    part /= tile.sum(axis=-1, keepdims=True)


def softmax_tiles(mask) -> list[tuple[int, int, int, int]]:
    """The row tiles masked_softmax_rows works in, as (start, stop, lo, end).

    Up to SOFTMAX_UNTILED_ROWS rows there is one tile, else one per
    SOFTMAX_TILE_ROWS rows. `end` is one past the last column any row of the
    tile may attend to (0 if none may), and `lo` is the first column below
    `end` that some row of the tile blocks (`end` if none does). The facts are
    the same for every head and layer a mask serves, so callers that reuse a
    mask compute them once.
    """
    mask = np.asarray(mask, dtype=bool)
    rows, cols = mask.shape
    step = max(rows, 1) if rows <= SOFTMAX_UNTILED_ROWS else SOFTMAX_TILE_ROWS
    tiles = []
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        band = mask[start:stop]
        # the ufunc reductions skip ndarray.any/all's Python wrappers
        seen = np.logical_or.reduce(band, axis=0)
        end = cols - int(seen[::-1].argmax()) if seen.any() else 0
        shared = np.logical_and.reduce(band[:, :end], axis=0)
        lo = end if shared.all() else int(shared.argmin())
        tiles.append((start, stop, lo, end))
    return tiles


def _allowed_tiles(mask: np.ndarray, tiles=None) -> list[tuple[int, int, int, int]]:
    """`tiles` (softmax_tiles(mask) when None) once every row of the boolean
    `mask` has an allowed key; else raises InvalidMaskError naming the first
    row that has none."""
    allowed = np.logical_or.reduce(mask, axis=1)
    if not allowed.all():
        raise InvalidMaskError(f"query row {int(allowed.argmin())} has no allowed key")
    return softmax_tiles(mask) if tiles is None else tiles


def masked_softmax_rows(scores, mask, out=None, tiles=None) -> np.ndarray:
    """Row softmax over the allowed entries of `mask`; blocked entries are 0.

    `scores` is (..., rows, keys): the (rows, keys) `mask` and its tiles serve
    every leading index alike, and a row's bits do not depend on how rows are
    stacked. `mask=None` allows every entry: one tile and no -inf fill. The
    result is written to `out` when one is given (a float64 array of the
    scores' shape, possibly `scores` itself), else to a new array; `scores`
    is only changed when it is `out`. Rows go in the tiles of
    softmax_tiles(mask), which a caller that has them passes as `tiles`; a
    tile's work stops at its `end` column, the columns past it are written as
    0, and the -inf fill of blocked entries starts at its `lo` column. A call
    of SOFTMAX_PARALLEL_ROWS rows or more, on a host with two cores, runs its
    later tiles on a worker thread while the caller runs the earlier ones;
    no tile reads another's rows, so that moves no bit. The result equals
    the untiled formula bit for bit. A row whose allowed scores are all
    -inf, or hold NaN or +inf, is NaN up to its tile's `end` and 0 past it.

    Raises InvalidMaskError if any row has no allowed entry; given `tiles`,
    the caller has checked that (validate_mask does).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 2:
        raise InvalidArgumentError(f"expected (..., rows, keys) scores, got shape {scores.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.shape[-2:]:
            raise InvalidArgumentError(
                f"mask shape {mask.shape} does not match scores shape {scores.shape}"
            )
        tiles = _allowed_tiles(mask) if tiles is None else tiles
    if out is None:
        out = scores.copy()
    elif not isinstance(out, np.ndarray) or out.shape != scores.shape or out.dtype != np.float64:
        raise InvalidArgumentError(f"out must be a float64 array of shape {scores.shape}")
    elif out is not scores:
        np.copyto(out, scores)
    if mask is None:
        _softmax_tile(out, out)
    elif scores.shape[-2] >= SOFTMAX_PARALLEL_ROWS and len(tiles) > 1:
        _masked_tiles_on_two_cores(out, mask, tiles)
    else:
        _masked_tiles(out, mask, tiles)
    return out


def _masked_tiles(out, mask, tiles) -> None:
    """masked_softmax_rows's work on `tiles`, in place on their rows of `out`."""
    for start, stop, lo, end in tiles:
        tile = out[..., start:stop, :]
        tile[..., end:] = 0.0
        np.copyto(tile[..., lo:end], -np.inf, where=~mask[start:stop, lo:end])
        _softmax_tile(tile, tile[..., :end])


# The tile worker: None until a call of SOFTMAX_PARALLEL_ROWS rows first needs
# it, then False on one core, else the function that hands it tiles.
_worker = None
_fork_reset_registered = False


def _masked_tiles_on_two_cores(out, mask, tiles) -> None:
    """_masked_tiles, with the tiles split into two contiguous runs of about
    equal work (rows times `end`): the tile worker runs the second run while
    the caller runs the first. On one core, or while another thread uses the
    worker, the caller runs every tile."""
    worker = _start_worker() if _worker is None else _worker
    work = np.cumsum([(stop - start) * end for start, stop, _, end in tiles])
    split = int(np.abs(2 * work[:-1] - work[-1]).argmin()) + 1
    if worker is False or not worker(out, mask, tiles[:split], tiles[split:]):
        _masked_tiles(out, mask, tiles)


def _start_worker():
    """The tile worker's hand-off function, or False when this process may
    run on one core only; the first call starts the worker thread.

    os and threading are imported here, not at module load, so that a process
    that never makes a call of SOFTMAX_PARALLEL_ROWS rows runs none of this.
    """
    import os
    import threading

    global _worker
    # setdefault is atomic, so threads making their first call at once share one lock
    with globals().setdefault("_start_lock", threading.Lock()):
        if _worker is None:
            # a platform that cannot say which cores this process may use gets no worker
            cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
            _worker = _new_worker() if len(cores) >= 2 else False
    return _worker


def _new_worker():
    """Start a tile worker thread and return the function that hands it tiles.

    A child made by os.fork() has no worker thread, so it forgets the parent's
    and starts its own on its first call of SOFTMAX_PARALLEL_ROWS rows.
    """
    import os
    import threading

    global _fork_reset_registered
    if not _fork_reset_registered:
        os.register_at_fork(after_in_child=_forget_worker)
        _fork_reset_registered = True
    start, done, busy = threading.Lock(), threading.Lock(), threading.Lock()
    start.acquire()
    done.acquire()
    job = []

    def serve():
        # keeps no reference to the job's arrays once done: one held until
        # the next call kept two score buffers alive (+20 MB peak RSS at
        # L = 1248)
        while True:
            start.acquire()
            try:
                _masked_tiles(*job)
                job.clear()
            except BaseException as exc:  # raised again in the caller
                job[:] = [exc]
            done.release()

    def hand_off(out, mask, mine, theirs) -> bool:
        """Run `theirs` on the worker and `mine` here; once both are done,
        raise the caller's error, else the worker's. False, having run
        nothing, while another thread holds the worker."""
        if not busy.acquire(blocking=False):
            return False
        job[:] = (out, mask, theirs)
        start.release()
        try:
            _masked_tiles(out, mask, mine)
        finally:
            done.acquire()
            error = job.pop() if job else None
            busy.release()
        if error is not None:
            raise error
        return True

    threading.Thread(target=serve, name="parvts-softmax-tiles", daemon=True).start()
    return hand_off


def _forget_worker() -> None:
    global _worker
    _worker = None
    globals().pop("_start_lock", None)  # another thread may have held it


def rms_norm(x, gain) -> np.ndarray:
    """x / sqrt(mean(x^2) + RMS_NORM_EPS), elementwise times gain.

    x is a vector or a matrix of rows, each normalized on its own; a row's
    bits equal the vector call's, since np.mean sums each row pairwise as it
    sums a vector.
    """
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    if x.ndim not in (1, 2) or gain.shape != x.shape[-1:]:
        raise InvalidArgumentError(
            f"vector or rows/gain length mismatch: {x.shape} vs {gain.shape}"
        )
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_NORM_EPS) * gain


def rms_norm_rows(x, gain) -> np.ndarray:
    """Row-wise rms_norm of a matrix against a single gain vector."""
    x = as_matrix(x)
    gain = np.asarray(gain, dtype=np.float64)
    if gain.shape != (x.shape[1],):
        raise InvalidArgumentError("gain length does not match row width")
    return _rms_norm_rows(x, gain)


def _rms_norm_rows(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """rms_norm_rows without its checks: x a float64 matrix, gain its row width."""
    # np.mean's own sum and division, without its Python-level wrapper
    mean_sq = np.add.reduce(x * x, axis=1, keepdims=True) / x.shape[1]
    scale = 1.0 / np.sqrt(mean_sq + RMS_NORM_EPS)
    return x * scale * gain


@functools.cache
def _rope_freqs(dim: int) -> np.ndarray:
    """Read-only rotary frequencies ROPE_THETA_BASE ** (-2p / dim), p < dim / 2."""
    freqs = ROPE_THETA_BASE ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    freqs.flags.writeable = False
    return freqs


def rope_apply(vec, position: int) -> np.ndarray:
    """Rotate consecutive (even, odd) pairs of a head vector by position-scaled angles.

    Pair p uses frequency ROPE_THETA_BASE ** (-2p / dim); position 0 is the identity.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or vec.size % 2 != 0:
        raise InvalidArgumentError("head dimension must be even")
    if position < 0:
        raise InvalidArgumentError("position must be non-negative")
    angles = position * _rope_freqs(vec.size)
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = vec[0::2], vec[1::2]
    out = np.empty_like(vec)
    out[0::2] = even * cos - odd * sin
    out[1::2] = even * sin + odd * cos
    return out


def rope_tables(positions, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each row's rotary angles, each shaped (rows, 1, head_dim / 2).

    rope_rotate_heads computes them when it is not given them; a caller that
    rotates several arrays at the same positions computes them once.
    """
    positions = np.asarray(positions, dtype=np.float64)
    angles = positions[:, None, None] * _rope_freqs(head_dim)[None, None, :]
    return np.cos(angles), np.sin(angles)


def rope_rotate_heads(x, positions, tables=None) -> np.ndarray:
    """Vectorized rope_apply over an (rows, heads, head_dim) array.

    positions holds one original token index per row; `tables`, if given, is
    rope_tables(positions, head_dim), and the result is the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] % 2 != 0:
        raise InvalidArgumentError("expected (rows, heads, even head_dim)")
    cos, sin = rope_tables(positions, x.shape[2]) if tables is None else tables
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
