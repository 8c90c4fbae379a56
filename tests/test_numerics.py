import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parvts.model
import parvts.numerics
from parvts.errors import InvalidArgumentError, InvalidMaskError
from parvts.harness import synthesize_token_ids
from parvts.model import ModelConfig, build_model, causal_mask, embed, run_layers
from parvts.numerics import (
    RMS_NORM_EPS,
    ROPE_THETA_BASE,
    SOFTMAX_PARALLEL_ROWS,
    SOFTMAX_TILE_ROWS,
    SOFTMAX_UNTILED_ROWS,
    RngState,
    _rope_freqs,
    masked_softmax_rows,
    matmul,
    rms_norm,
    rms_norm_rows,
    rope_apply,
    rope_rotate_heads,
    rope_tables,
    seeded_uniform,
    softmax_tiles,
)
from parvts.scheduler import group_exclusive_mask


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(matmul(eye, b), b)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[11.0]])

    def test_matches_triple_loop_reference(self):
        rng = RngState(42)
        a = seeded_uniform(rng, 8, 8, 1.0)
        b = seeded_uniform(rng, 8, 8, 1.0)
        expected = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                acc = 0.0
                for k in range(8):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(matmul(a, b), expected, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_tolerance(self):
        rng = RngState(7)
        a = seeded_uniform(rng, 16, 16, 1.0)
        b = seeded_uniform(rng, 16, 16, 1.0)
        c = seeded_uniform(rng, 16, 16, 1.0)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.max(np.abs(left - right)) <= 1e-9


class TestMaskedSoftmax:
    def test_uniform_row(self):
        out = masked_softmax_rows(np.zeros((1, 3)), np.ones((1, 3), dtype=bool))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_single_survivor(self):
        out = masked_softmax_rows(
            np.array([[5.0, 5.0]]), np.array([[True, False]])
        )
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_direct_exponent_values(self):
        out = masked_softmax_rows(
            np.array([[1.0, 2.0, 3.0]]), np.ones((1, 3), dtype=bool)
        )
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out[0], expected, rtol=1e-15)

    def test_fully_blocked_row_rejected(self):
        with pytest.raises(InvalidMaskError):
            masked_softmax_rows(np.zeros((2, 2)), np.array([[True, True], [False, False]]))

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**16 - 1),
    )
    def test_rows_sum_to_one_and_blocked_vanish(self, rows, mask_seed):
        scores = np.array(rows)
        gen = np.random.Generator(np.random.Philox(key=[mask_seed, 0]))
        mask = gen.random(scores.shape) < 0.6
        mask[:, 0] = True  # keep every row feasible
        out = masked_softmax_rows(scores, mask)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out[~mask] == 0.0)

    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 330),
        st.integers(1, 340),
        st.sampled_from(["random", "causal", "causal_holes"]),
        st.floats(1e-3, 1e3),
        st.integers(0, 2**16 - 1),
    )
    @example(200, 300, "causal_holes", 10.0, 0)
    @example(330, 330, "causal", 10.0, 1)
    @example(257, 120, "random", 10.0, 2)
    @example(SOFTMAX_PARALLEL_ROWS + 37, SOFTMAX_PARALLEL_ROWS + 50, "causal_holes", 10.0, 3)
    def test_equals_two_pass_formula_and_keeps_scores(self, rows, cols, masking, spread, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 1]))
        scores = gen.uniform(-spread, spread, size=(rows, cols))
        # causal: row r sees the columns up to r + cols - rows, as the last
        # rows of a longer sequence do
        last = np.arange(rows) + cols - rows
        if masking == "random":
            mask = gen.random((rows, cols)) < 0.5
            last = gen.integers(0, cols, rows)
        else:
            mask = np.arange(cols)[None, :] <= last[:, None]
            if masking == "causal_holes":
                mask &= gen.random((rows, cols)) < 0.7
        mask[np.arange(rows), np.clip(last, 0, cols - 1)] = True
        before = scores.copy()
        # the formula with a second mask pass over the exponentials
        neg = np.where(mask, scores, -np.inf)
        expd = np.where(mask, np.exp(neg - neg.max(axis=1, keepdims=True)), 0.0)
        expected = expd / expd.sum(axis=1, keepdims=True)
        out = masked_softmax_rows(scores, mask)
        assert np.array_equal(out, expected)
        assert np.array_equal(scores, before)
        assert masked_softmax_rows(scores, mask, out=scores) is scores
        assert np.array_equal(scores, expected)

    def test_out_must_match_scores(self):
        mask = np.ones((2, 3), dtype=bool)
        for out in (np.empty((3, 2)), np.empty((2, 3), dtype=np.float32), [[0.0] * 3] * 2):
            with pytest.raises(InvalidArgumentError):
                masked_softmax_rows(np.zeros((2, 3)), mask, out=out)

    def test_degenerate_row_is_nan_up_to_its_tile_extent(self):
        rows = SOFTMAX_UNTILED_ROWS + 1
        mask = np.tril(np.ones((rows, rows), dtype=bool))
        scores = np.zeros((rows, rows))
        scores[3] = -np.inf
        with np.errstate(invalid="ignore"):
            out = masked_softmax_rows(scores, mask)
        assert np.isnan(out[3, :SOFTMAX_TILE_ROWS]).all()
        assert np.all(out[3, SOFTMAX_TILE_ROWS:] == 0.0)
        np.testing.assert_allclose(np.delete(out, 3, axis=0).sum(axis=1), 1.0, atol=1e-12)


def _random_mask(gen, rows, cols, masking, density):
    """A random, causal or causal-with-holes mask; rows may be left empty."""
    if masking == "random":
        return gen.random((rows, cols)) < density
    # causal: row r sees the columns up to r + cols - rows
    mask = np.arange(cols)[None, :] <= (np.arange(rows) + cols - rows)[:, None]
    if masking == "causal_holes":
        mask &= gen.random((rows, cols)) < density
    return mask


def _brute_force_tiles(mask):
    """softmax_tiles one column at a time."""
    rows, cols = mask.shape
    size = rows if rows <= SOFTMAX_UNTILED_ROWS else SOFTMAX_TILE_ROWS
    tiles = []
    for start in range(0, rows, size):
        stop = min(start + size, rows)
        seen = [c for c in range(cols) if mask[start:stop, c].any()]
        end = seen[-1] + 1 if seen else 0
        blocked = [c for c in range(end) if not mask[start:stop, c].all()]
        tiles.append((start, stop, blocked[0] if blocked else end, end))
    return tiles


class TestSoftmaxTiles:
    @settings(deadline=None, max_examples=100)
    @given(
        st.integers(1, 330),
        st.integers(1, 340),
        st.sampled_from(["random", "causal", "causal_holes"]),
        st.floats(0.0, 1.0),
        st.integers(0, 2**16 - 1),
    )
    @example(SOFTMAX_UNTILED_ROWS, 200, "causal", 1.0, 0)
    @example(SOFTMAX_UNTILED_ROWS + 1, 200, "causal_holes", 0.9, 1)
    @example(300, 300, "random", 0.001, 2)
    def test_match_brute_force(self, rows, cols, masking, density, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 2]))
        mask = _random_mask(gen, rows, cols, masking, density)
        tiles = softmax_tiles(mask)
        assert tiles == _brute_force_tiles(mask)
        assert all(isinstance(v, int) for tile in tiles for v in tile)

    def test_no_rows_no_tiles(self):
        assert softmax_tiles(np.zeros((0, 5), dtype=bool)) == []

    @settings(deadline=None, max_examples=50)
    @given(
        st.integers(1, 330),
        st.integers(1, 340),
        st.sampled_from(["random", "causal", "causal_holes"]),
        st.integers(0, 2**16 - 1),
    )
    def test_given_tiles_change_no_bit(self, rows, cols, masking, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 3]))
        scores = gen.uniform(-20, 20, size=(rows, cols))
        mask = _random_mask(gen, rows, cols, masking, 0.6)
        mask[:, -1] = True  # keep every row feasible
        out = masked_softmax_rows(scores, mask, tiles=softmax_tiles(mask))
        assert np.array_equal(out, masked_softmax_rows(scores, mask))


def _grouped_mask(rows, cols):
    """Causal over the last `rows` of `cols` positions, split into two exclusive groups."""
    mask = _random_mask(None, rows, cols, "causal", 1.0)
    groups = np.arange(cols) % 3 - 1  # -1 shared, 0 and 1 exclusive
    return mask & ~((groups[-rows:, None] + groups[None, :] == 1) & (groups[None, :] >= 0))


class TestUnmaskedAndStackedSoftmax:
    """mask=None is the all-true mask, and stacked (heads, rows, keys) scores
    are the per-head 2-D calls."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 260), st.integers(1, 300), st.floats(1e-3, 1e3), st.integers(0, 2**16 - 1)
    )
    @example(SOFTMAX_UNTILED_ROWS + 1, 64, 10.0, 0)
    def test_none_mask_equals_all_true_mask(self, rows, cols, spread, seed):
        gen = np.random.Generator(np.random.Philox(key=[seed, 4]))
        scores = gen.uniform(-spread, spread, size=(rows, cols))
        before = scores.copy()
        expected = masked_softmax_rows(scores, np.ones((rows, cols), dtype=bool))
        assert np.array_equal(masked_softmax_rows(scores, None), expected)
        assert np.array_equal(scores, before)
        out = np.empty_like(scores)
        assert masked_softmax_rows(scores, None, out=out) is out
        assert np.array_equal(out, expected)
        assert masked_softmax_rows(scores, None, out=scores) is scores
        assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("mask", [None, np.ones((2, 3), dtype=bool)])
    def test_out_must_match_scores(self, mask):
        for out in (np.empty((3, 2)), np.empty((2, 3), dtype=np.float32), [[0.0] * 3] * 2,
                    np.empty((1, 2, 3))):
            with pytest.raises(InvalidArgumentError):
                masked_softmax_rows(np.zeros((2, 3)), mask, out=out)

    def test_scores_need_rows_and_keys(self):
        for mask in (None, np.ones((1, 3), dtype=bool)):
            with pytest.raises(InvalidArgumentError, match="rows, keys"):
                masked_softmax_rows(np.zeros(3), mask)

    def test_mask_must_match_the_last_two_axes(self):
        with pytest.raises(InvalidArgumentError, match="mask shape"):
            masked_softmax_rows(np.zeros((2, 3, 4)), np.ones((2, 3), dtype=bool))

    # row counts on both sides of SOFTMAX_UNTILED_ROWS: one tile, then 64-row tiles
    @pytest.mark.parametrize("rows, cols", [(1, 7), (5, 9), (48, 48), (SOFTMAX_UNTILED_ROWS, 200),
                                            (SOFTMAX_UNTILED_ROWS + 1, 193), (300, 320)])
    @pytest.mark.parametrize("masking", ["causal", "group_exclusive", "none"])
    @pytest.mark.parametrize("heads", [1, 3])
    def test_stacked_heads_equal_per_head_calls(self, rows, cols, masking, heads):
        gen = np.random.Generator(np.random.Philox(key=[rows * cols, 5]))
        scores = gen.uniform(-20, 20, size=(heads, rows, cols))
        mask = {"causal": _random_mask(None, rows, cols, "causal", 1.0),
                "group_exclusive": _grouped_mask(rows, cols), "none": None}[masking]
        expected = np.stack([masked_softmax_rows(head, mask) for head in scores])
        assert np.array_equal(masked_softmax_rows(scores, mask), expected)
        tiles = None if mask is None else softmax_tiles(mask)
        assert masked_softmax_rows(scores, mask, out=scores, tiles=tiles) is scores
        assert np.array_equal(scores, expected)


WORKER = "parvts-softmax-tiles"
TWO_CORES = len(os.sched_getaffinity(0)) >= 2
needs_two_cores = pytest.mark.skipif(not TWO_CORES, reason="the tile worker needs two cores")


def _one_thread(call):
    """call() with masked_softmax_rows's row threshold for the worker out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parvts.numerics, "SOFTMAX_PARALLEL_ROWS", 10**9)
        return call()


def _parallel_case(rows, extra, masking, heads, seed):
    """(heads, rows, cols) scores and a (rows, cols) mask with every row feasible."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 6]))
    if masking == "group_exclusive":
        # interleaved visual groups between shared rows, as a saliency split leaves them
        mask = group_exclusive_mask(np.arange(rows), gen.integers(-1, 2, rows))
    else:
        mask = _random_mask(gen, rows, rows + extra, masking, 0.6)
        mask[np.arange(rows), np.arange(rows) + extra] = True
    return gen.uniform(-20, 20, size=(heads, *mask.shape)), mask


class TestTwoCoreSoftmax:
    """From SOFTMAX_PARALLEL_ROWS rows a tiled call's tiles, and a one-head
    group's AV halves, run as jobs that the caller and one worker thread claim;
    no bit moves."""

    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(SOFTMAX_PARALLEL_ROWS - 2, SOFTMAX_PARALLEL_ROWS + 200),
        st.integers(0, 40),
        st.sampled_from(["random", "causal", "causal_holes", "group_exclusive"]),
        st.sampled_from([1, 3]),
        st.sampled_from(["new", "scores", "separate"]),
        st.integers(0, 2**16 - 1),
    )
    @example(SOFTMAX_PARALLEL_ROWS, 0, "causal", 3, "scores", 0)
    @example(SOFTMAX_PARALLEL_ROWS - 1, 7, "random", 1, "new", 1)
    def test_equals_the_same_call_on_one_thread(self, rows, extra, masking, heads, output, seed):
        scores, mask = _parallel_case(rows, extra, masking, heads, seed)
        expected = _one_thread(lambda: masked_softmax_rows(scores, mask))
        before = scores.copy()
        if output == "new":
            out = masked_softmax_rows(scores, mask)
            assert np.array_equal(scores, before)
        elif output == "scores":
            out = masked_softmax_rows(scores, mask, out=scores, tiles=softmax_tiles(mask))
            assert out is scores
        else:
            out = np.full_like(scores, np.nan)
            assert masked_softmax_rows(scores, mask, out=out) is out
        assert np.array_equal(out, expected)

    @staticmethod
    def _record_jobs(monkeypatch):
        """Spy on the job runner and on the tiles: ([[(index, thread)] per runner
        call], [(tile, thread)] per tile run)."""
        calls, tiles = [], []
        run, tile_run = parvts.numerics.run_on_two_cores, parvts.numerics._masked_tile

        def recorded(i, job, seen):
            def job_run():
                seen.append((i, threading.current_thread().name))
                job()
            return job_run

        def runner(jobs):
            calls.append([])
            run([recorded(i, job, calls[-1]) for i, job in enumerate(jobs)])

        def tile_spy(out, mask, scale, *tile):
            tiles.append((tile, threading.current_thread().name))
            tile_run(out, mask, scale, *tile)

        monkeypatch.setattr(parvts.numerics, "run_on_two_cores", runner)
        monkeypatch.setattr(parvts.numerics, "_masked_tile", tile_spy)
        return calls, tiles

    @staticmethod
    def _one_head_attention(rows):
        """_attention's arguments for one causal head of size 8."""
        gen = np.random.Generator(np.random.Philox(key=[rows, 7]))
        q, k, v = (gen.uniform(-1, 1, size=(rows, 1, 8)) for _ in range(3))
        mask = np.tril(np.ones((rows, rows), dtype=bool))
        return q, k, v, mask, softmax_tiles(mask)

    @needs_two_cores
    @pytest.mark.parametrize("rows", [SOFTMAX_PARALLEL_ROWS - 1, SOFTMAX_PARALLEL_ROWS, 1248])
    def test_every_tile_and_av_half_runs_once(self, monkeypatch, rows):
        args = self._one_head_attention(rows)
        expected = _one_thread(lambda: parvts.model._attention(*args))
        calls, tiles = self._record_jobs(monkeypatch)
        assert np.array_equal(parvts.model._attention(*args), expected)
        me = threading.current_thread().name
        assert sorted(tile for tile, _ in tiles) == args[-1]
        if rows < SOFTMAX_PARALLEL_ROWS:
            assert calls == [] and {name for _, name in tiles} == {me}
            return
        # the softmax tiles, then the two AV halves
        assert [len(jobs) for jobs in calls] == [len(args[-1]), 2]
        for jobs in calls:
            assert sorted(i for i, _ in jobs) == list(range(len(jobs)))
            assert {name for _, name in jobs} <= {me, WORKER}
            assert (len(jobs) - 1, WORKER) in jobs  # the worker starts on the last job

    @pytest.mark.parametrize("holder", ["one_core", "another_thread"])
    def test_the_caller_runs_every_job_without_a_free_worker(self, monkeypatch, holder):
        args = self._one_head_attention(1248)
        expected = _one_thread(lambda: parvts.model._attention(*args))
        entered, release = threading.Event(), threading.Event()
        if holder == "one_core":
            monkeypatch.setattr(parvts.numerics, "_worker", False)
        else:
            # another caller holds the worker until `release` is set
            holding = threading.Thread(target=parvts.numerics.run_on_two_cores, args=(
                [lambda: (entered.set(), release.wait(30)), lambda: release.wait(30)],))
            holding.start()
            assert entered.wait(30)
        calls, tiles = self._record_jobs(monkeypatch)
        try:
            assert np.array_equal(parvts.model._attention(*args), expected)
        finally:
            release.set()
            if holder == "another_thread":
                holding.join(30)
        assert [len(jobs) for jobs in calls] == [len(args[-1]), 2]
        assert sorted(tile for tile, _ in tiles) == args[-1]
        me = threading.current_thread().name
        assert all(name == me for jobs in calls for _, name in jobs)
        assert all(name == me for _, name in tiles)

    def test_no_score_buffer_outlives_its_call(self, monkeypatch):
        rows = 1248
        scores, mask = _parallel_case(rows, 0, "causal", 1, 4)
        buf = np.empty_like(scores)
        masked_softmax_rows(scores, mask, out=buf)
        ref = weakref.ref(buf)
        del buf
        assert ref() is None
        model = build_model(ModelConfig(1, 16, 2, 16, 23, rows, 5))
        buffers, inner = [], parvts.model.masked_softmax_rows

        def keep_weakref(scores, mask, **kwargs):
            buffers.append(weakref.ref(kwargs["out"]))
            return inner(scores, mask, **kwargs)

        monkeypatch.setattr(parvts.model, "masked_softmax_rows", keep_weakref)
        pos = np.arange(rows)
        run_layers(model, embed(model, synthesize_token_ids(model.config, rows)), pos, (1, 1),
                   causal_mask(pos))
        assert len(buffers) == 2 and all(ref() is None for ref in buffers)

    @settings(deadline=None, max_examples=20)
    @given(
        st.sampled_from(["none", "one_tile", "tiled", "two_cores"]),
        st.sampled_from([1, 3]),
        st.sampled_from(["new", "scores", "separate"]),
        st.floats(1e-3, 10.0),
        st.integers(0, 2**16 - 1),
    )
    @example("two_cores", 1, "scores", 1.0 / np.sqrt(24), 0)
    def test_scale_equals_scaling_first(self, case, heads, output, scale, seed):
        rows = {"none": 300, "one_tile": 150, "tiled": 300, "two_cores": 700}[case]
        scores, mask = _parallel_case(rows, 0, "causal_holes", heads, seed)
        mask = None if case == "none" else mask
        expected = masked_softmax_rows(scores * scale, mask)
        if output == "new":
            out = masked_softmax_rows(scores, mask, scale=scale)
        elif output == "scores":
            out = masked_softmax_rows(scores, mask, out=scores, scale=scale)
        else:
            out = masked_softmax_rows(scores, mask, out=np.full_like(scores, np.nan), scale=scale)
        assert np.array_equal(out, expected)

    def test_twenty_parallel_calls_start_at_most_one_thread(self):
        # a fresh interpreter, so that the first of these calls starts the worker
        script = f"""
import sys
import threading
import numpy as np
from parvts.numerics import masked_softmax_rows
mask = np.tril(np.ones(({SOFTMAX_PARALLEL_ROWS}, {SOFTMAX_PARALLEL_ROWS}), dtype=bool))
barrier = threading.Barrier(20)
sys.setswitchinterval(1e-6)
def call():
    barrier.wait()
    masked_softmax_rows(np.zeros(mask.shape), mask)
before = threading.active_count()
callers = [threading.Thread(target=call) for _ in range(20)]
for caller in callers:
    caller.start()
for caller in callers:
    caller.join()
workers = sum(t.name == "{WORKER}" for t in threading.enumerate())
print(threading.active_count() - before, workers)
"""
        src = os.path.dirname(os.path.dirname(parvts.numerics.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == (["1", "1"] if TWO_CORES else ["0", "0"])

    @needs_two_cores
    def test_worker_error_is_raised_in_the_caller(self, monkeypatch):
        scores, mask = _parallel_case(SOFTMAX_PARALLEL_ROWS + 64, 0, "causal_holes", 3, 2)
        expected = _one_thread(lambda: masked_softmax_rows(scores, mask))
        run = parvts.numerics._softmax_tile

        def fail_on_worker(tile, part):
            if threading.current_thread().name == WORKER:
                raise RuntimeError("tile failed on the worker")
            run(tile, part)

        monkeypatch.setattr(parvts.numerics, "_softmax_tile", fail_on_worker)
        with pytest.raises(RuntimeError, match="tile failed on the worker"):
            masked_softmax_rows(scores, mask)
        monkeypatch.undo()
        assert np.array_equal(masked_softmax_rows(scores, mask), expected)

    def test_concurrent_callers_each_get_their_own_rows(self):
        cases = [_parallel_case(SOFTMAX_PARALLEL_ROWS + 16 * i, 0, "causal_holes", 1, i)
                 for i in range(4)]
        expected = [_one_thread(lambda: masked_softmax_rows(*case)) for case in cases]
        results = [[] for _ in cases]

        def call(i):
            for _ in range(5):
                results[i].append(masked_softmax_rows(*cases[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,), daemon=True)
                       for i in range(len(cases))]
            for caller in callers:
                caller.start()
            deadline = time.monotonic() + 30
            for caller in callers:
                caller.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for got, want in zip(results, expected):
            assert len(got) == 5 and all(np.array_equal(out, want) for out in got)

    def test_forked_child_finishes_a_parallel_call(self):
        scores, mask = _parallel_case(SOFTMAX_PARALLEL_ROWS + 100, 0, "causal", 1, 3)
        expected = masked_softmax_rows(scores, mask)  # the worker exists from here on
        pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if np.array_equal(masked_softmax_rows(scores, mask), expected) else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's parallel call did not finish within 30 s")
        assert os.waitstatus_to_exitcode(status[1]) == 0


class TestRmsNorm:
    def test_unit_rms_vector(self):
        x = np.ones(4)
        out = rms_norm(x, np.ones(4))
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + RMS_NORM_EPS), atol=1e-12)

    def test_zero_input(self):
        np.testing.assert_array_equal(rms_norm(np.zeros(5), np.ones(5)), np.zeros(5))

    def test_hand_computed(self):
        out = rms_norm(np.array([3.0, 4.0]), np.ones(2))
        np.testing.assert_allclose(
            out, [0.8485277980128058, 1.1313703973504077], rtol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            rms_norm(np.ones(3), np.ones(4))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 300), st.integers(1, 130), st.integers(0, 2**16 - 1),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_matrix_rows_equal_vector_calls(self, rows, width, seed, scale):
        rng = RngState(seed)
        x = seeded_uniform(rng, rows, width, scale)
        gain = seeded_uniform(rng, 1, width, 2.0)[0]
        out = rms_norm(x, gain)
        assert out.shape == x.shape
        for r in range(rows):
            np.testing.assert_array_equal(out[r], rms_norm(x[r], gain))

    def test_matrix_gain_mismatch_and_three_dims_rejected(self):
        for x, gain in ((np.ones((2, 3)), np.ones(4)), (np.ones((2, 3)), np.ones((2, 3))),
                        (np.ones((2, 2, 3)), np.ones(3)), (np.float64(1.0), np.ones(1))):
            with pytest.raises(InvalidArgumentError):
                rms_norm(x, gain)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 300), st.integers(1, 130), st.integers(0, 2**16 - 1),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_rows_equal_mean_formula_bits(self, rows, width, seed, scale):
        rng = RngState(seed)
        x = seeded_uniform(rng, rows, width, scale)
        gain = seeded_uniform(rng, 1, width, 2.0)[0]
        expected = x * (1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + RMS_NORM_EPS)) * gain
        np.testing.assert_array_equal(rms_norm_rows(x, gain), expected)


class TestRope:
    def test_position_zero_is_identity(self):
        vec = np.array([0.3, -1.2, 0.7, 2.5])
        np.testing.assert_array_equal(rope_apply(vec, 0), vec)

    def test_two_dim_rotation_by_hand(self):
        for position in (1, 3, 10):
            out = rope_apply(np.array([1.0, 0.0]), position)
            np.testing.assert_allclose(
                out, [np.cos(position), np.sin(position)], rtol=1e-15
            )

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rope_apply(np.ones(3), 1)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 500))
    def test_norm_preserved(self, seed, position):
        vec = seeded_uniform(RngState(seed), 1, 8, 1.0)[0]
        out = rope_apply(vec, position)
        assert abs(np.linalg.norm(out) - np.linalg.norm(vec)) <= 1e-12

    def test_batched_matches_single(self):
        rng = RngState(5)
        positions = np.array([0, 2, 3, 511, 2048, 4095])
        for head_dim in range(2, 33, 2):
            x = seeded_uniform(rng, 6, 2 * head_dim, 1.0).reshape(6, 2, head_dim)
            batched = rope_rotate_heads(x, positions)
            for r in range(6):
                for h in range(2):
                    np.testing.assert_array_equal(
                        batched[r, h], rope_apply(x[r, h], int(positions[r]))
                    )

    def test_tables_give_the_same_bits(self):
        rng = RngState(6)
        positions = np.array([0, 1, 7, 511, 2048, 4095])
        for head_dim in range(2, 33, 2):
            x = seeded_uniform(rng, 6, 3 * head_dim, 1.0).reshape(6, 3, head_dim)
            tables = rope_tables(positions, head_dim)
            assert tables[0].shape == tables[1].shape == (6, 1, head_dim // 2)
            assert np.array_equal(
                rope_rotate_heads(x, positions, tables), rope_rotate_heads(x, positions)
            )

    def test_cached_frequencies_are_read_only(self):
        freqs = _rope_freqs(8)
        assert _rope_freqs(8) is freqs
        with pytest.raises(ValueError, match="read-only"):
            freqs[0] = 2.0
        np.testing.assert_array_equal(freqs, ROPE_THETA_BASE ** (-np.arange(0, 8, 2) / 8))


class TestSeededUniform:
    def test_same_seed_bit_identical(self):
        a = seeded_uniform(RngState(123), 5, 7, 0.5)
        b = seeded_uniform(RngState(123), 5, 7, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_range_bound(self):
        out = seeded_uniform(RngState(9), 20, 20, 0.1)
        assert np.all(out >= -0.1) and np.all(out <= 0.1)

    def test_different_seeds_differ(self):
        a = seeded_uniform(RngState(1), 4, 4, 1.0)
        b = seeded_uniform(RngState(2), 4, 4, 1.0)
        assert np.any(a != b)

    def test_counter_advances_per_draw(self):
        rng = RngState(77)
        first = seeded_uniform(rng, 3, 3, 1.0)
        second = seeded_uniform(rng, 3, 3, 1.0)
        assert rng.counter == 2
        assert np.any(first != second)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(InvalidArgumentError):
            seeded_uniform(RngState(0), 2, 2, 0.0)
