"""Workload inputs and the closed-loop client that drives parvts.

Each workload is a sequence of cycles. A cycle holds a fixed mix of request
shapes (strategy, visual count, keep count, ...), so every run measures the
same mix; the seed only draws the token ids, the model seeds of CLI runs and
the order inside each cycle. The program sees only the generated token ids,
layout and keep count, and every call goes through the public API.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from parvts import cli
from parvts import model as pm
from parvts import saliency as ps
from parvts import scheduler as sched

import checks

# Toy geometry of the long-sequence workloads: 4 layers, d = 64, 4 heads, m = 128.
LONG_MODEL = pm.ModelConfig(
    num_layers=4, hidden_dim=64, num_heads=4, mlp_dim=128,
    vocab_size=512, max_positions=4096, master_seed=0,
)
NUM_SYSTEM, NUM_QUESTION, JOINT_PREFIX = 32, 64, 1
STRATEGIES = tuple(s.value for s in sched.Strategy)

# prefill_long: 5 strategies x 9 visual counts = 45 requests per cycle, about
# 8 s on the reference host. Rung r of the ladder keeps PREFILL_KEEP[r % 3] of
# its visual tokens, so each strategy sees every keep fraction three times. A
# ladder of distinct sizes keeps the TTFT distribution free of wide gaps, so
# its percentiles do not jump between clusters from run to run. The ladder
# stops at 1152 visual tokens (L = 1248) so that a 30 s run still yields more
# than 92 TTFT samples, enough for a p90 with ten samples beyond it.
PREFILL_VISUAL = tuple(range(576, 1153, 72))
PREFILL_KEEP = (0.11, 0.25, 0.5)
PREFILL_STEPS = 8

# decode_long: keep 64 of 576 (p = 0.889, as in the 7B preset), 1024 steps.
DECODE_VISUAL, DECODE_KEEP, DECODE_STEPS, DECODE_DEPTH = 576, 64, 1024, 2
DECODE_STRATEGIES = ("Vanilla", "ParVTSBatch")

# lab_cli: the shipped demo geometry; per cycle 16 `run`, 4 `cost`,
# 2 `sweep` and 1 `verify`.
LAB_CONFIG = """\
model.layers = 4
model.hidden_dim = 32
model.heads = 4
model.mlp_dim = 64
model.vocab = 97
model.seed = 3
tokens.system = 4
tokens.visual = 16
tokens.question = 6
schedule.strategy = ParVTSBatch
schedule.migration_depth = 2
schedule.joint_prefix = 1
partition.keep_count = 6
decode.steps = 6
cost.p = 0.889
cost.n = 3
cost.N = 32
cost.L_text = 115
cost.L_img = 576
cost.M = 32
cost.d = 4096
cost.m = 11008
"""
LAB_VISUAL = (16, 32, 64, 128)
LAB_KEEP_FRACTION = 0.375
LAB_COST, LAB_SWEEP, LAB_VERIFY = 4, 2, 1
LAB_MODEL = pm.ModelConfig(4, 32, 4, 64, 97, 64, 3)


@dataclass(frozen=True, eq=False)
class Request:
    """One prefill-then-decode request of a long-sequence workload."""

    strategy: str
    num_visual: int
    keep: int
    migration_depth: int
    steps: int
    token_ids: np.ndarray

    @property
    def layout(self) -> pm.SequenceLayout:
        return pm.SequenceLayout.from_counts(NUM_SYSTEM, self.num_visual, NUM_QUESTION)

    @property
    def schedule(self) -> sched.ScheduleConfig:
        return sched.ScheduleConfig(
            sched.Strategy(self.strategy), self.migration_depth, 0.5, 0.5, JOINT_PREFIX
        )


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]


def _rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle])


def _tokens(rng, num_visual: int) -> np.ndarray:
    return rng.integers(0, LONG_MODEL.vocab_size, NUM_SYSTEM + num_visual + NUM_QUESTION)


def prefill_cycle(seed: int, cycle: int) -> list[Request]:
    rng = _rng(seed, cycle)
    shapes = [(strategy, rung) for strategy in STRATEGIES for rung in range(len(PREFILL_VISUAL))]
    requests = []
    for index in rng.permutation(len(shapes)):
        strategy, rung = shapes[index]
        visual = PREFILL_VISUAL[rung]
        requests.append(Request(
            strategy, visual, round(PREFILL_KEEP[rung % 3] * visual),
            2 + rung // 3 % 2, PREFILL_STEPS, _tokens(rng, visual),
        ))
    return requests


def decode_cycle(seed: int, cycle: int) -> list[Request]:
    rng = _rng(seed, cycle)
    return [
        Request(strategy, DECODE_VISUAL, DECODE_KEEP, DECODE_DEPTH, DECODE_STEPS,
                _tokens(rng, DECODE_VISUAL))
        for strategy in DECODE_STRATEGIES
    ]


def lab_cycle(seed: int, cycle: int, config_path: str, out_dir: str) -> list[Command]:
    rng = _rng(seed, cycle)
    commands = []
    for strategy in STRATEGIES[1:]:
        for visual in LAB_VISUAL:
            commands.append(Command("run", (
                "run", "--config", config_path, "--out", f"{out_dir}/report.txt",
                "--set", f"tokens.visual={visual}",
                "--set", f"partition.keep_count={round(LAB_KEEP_FRACTION * visual)}",
                "--set", f"schedule.strategy={strategy}",
                "--set", f"model.seed={int(rng.integers(0, 2**31))}",
            )))
    for _ in range(LAB_COST):
        commands.append(Command("cost", (
            "cost", "--config", config_path, "--preset", "LLaVA-1.5-7B",
            "--p", repr(round(float(rng.uniform(0.5, 0.95)), 3)),
        )))
    for _ in range(LAB_SWEEP):
        commands.append(Command("sweep", (
            "sweep", "--config", config_path, "--out", f"{out_dir}/sweep.csv",
            "p=0:1:0.05", "n=1,2,3", f"L_img=576,{int(rng.integers(577, 2305))}",
        )))
    commands.extend(Command("verify", ("verify",)) for _ in range(LAB_VERIFY))
    return [commands[i] for i in rng.permutation(len(commands))]


@dataclass
class Outcome:
    """What one request or command produced, and the problems found in it.

    Timed intervals are (begin, end) pairs of time.perf_counter(); the
    client scales them once the host-speed probe has samples on both sides.
    """

    problems: list[str]
    span: tuple[float, float] = (0.0, 0.0)
    ttft: tuple[float, float] | None = None
    itl: list[tuple[float, float]] = field(default_factory=list)
    start: int = -1
    decoded: list[int] = field(default_factory=list)
    partition: object = None


def serve(model, request: Request, probe) -> Outcome:
    """Saliency, partition, prefill and greedy decode, timed per phase.

    TTFT covers saliency, partition, run_strategy and the first argmax (a
    vanilla request skips saliency and partition, which it does not use).
    Each inter-token latency covers one decode_step plus its argmax. The
    host-speed probe samples between decode steps, outside the timed regions.
    """
    layout, cfg = request.layout, request.schedule
    begin = time.perf_counter()
    partition = None
    if request.strategy != "Vanilla":
        lo, hi = layout.visual_span
        saliency = ps.toy_cls_attention(
            pm.embed(model, request.token_ids[lo:hi]), model.config.master_seed
        )
        partition = ps.partition_topk(saliency, request.keep)
    result = sched.run_strategy(model, request.token_ids, layout, partition, cfg)
    logits = pm.output_logits(model, result.hidden[-1:])[0]
    token = int(np.argmax(logits))
    first = time.perf_counter()
    out = Outcome(checks.logits_problems(logits), ttft=(begin, first), start=token,
                  partition=partition)
    for step in range(request.steps):
        probe.tick()
        tick = time.perf_counter()
        logits = pm.decode_step(model, result.cache, token, layout.output_start + step)
        token = int(np.argmax(logits))
        out.itl.append((tick, time.perf_counter()))
        if not out.problems:
            out.problems.extend(checks.logits_problems(logits))
        out.decoded.append(token)
    out.span = (begin, time.perf_counter())
    dec_pos = layout.output_start + np.arange(request.steps, dtype=np.int64)
    out.problems.extend(checks.cache_problems(result.cache, checks.expected_cache(
        request.strategy, layout, partition, request.migration_depth,
        model.config.num_layers, dec_pos,
    )))
    return out


def run_command(command: Command) -> Outcome:
    """One in-process `parvts` command; a non-zero exit code is a failure."""
    sink = io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(list(command.argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    end = time.perf_counter()
    problems = [] if code == 0 else [f"exit code {code}: {sink.getvalue().strip()[-200:]}"]
    return Outcome(problems, span=(begin, end))


def attempt(workload: str, state, item, probe) -> Outcome:
    """Run one item of a cycle; an exception makes it a failed outcome."""
    probe.tick()
    try:
        if workload == "lab_cli":
            return run_command(item)
        return serve(state.model, item, probe)
    except Exception as exc:  # a request that raises is a failed request
        return Outcome([f"raised {exc!r}"])


@dataclass
class State:
    """What set-up leaves for the measured loop."""

    model: object
    first_cycle: list
    config_path: str = ""


def setup(workload: str, seed: int, out_dir: str) -> State:
    """Model build, input synthesis for the first cycle and a first BLAS call."""
    if workload == "lab_cli":
        config_path = f"{out_dir}/lab.cfg"
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(LAB_CONFIG)
        model = pm.build_model(LAB_MODEL)
        first = lab_cycle(seed, 0, config_path, out_dir)
    else:
        config_path = ""
        model = pm.build_model(LONG_MODEL)
        first = (prefill_cycle if workload == "prefill_long" else decode_cycle)(seed, 0)
    layout = pm.SequenceLayout.from_counts(4, 16, 6)
    ids = np.arange(layout.total_prefill) % model.config.vocab_size
    warm = sched.run_vanilla(model, ids, layout)
    pm.decode_step(model, warm.cache, 1, layout.output_start)
    return State(model, first, config_path)


def warm_up(workload: str, state: State, seed: int, probe) -> None:
    """One untimed request of the largest shape, so that the allocator and
    caches are in their steady state before the first timed cycle."""
    if workload == "lab_cli":
        run_command(next(c for c in state.first_cycle if c.kind == "run"
                         and f"tokens.visual={LAB_VISUAL[-1]}" in c.argv))
    else:
        rng = _rng(seed, 2**32 - 1)
        visual = max(PREFILL_VISUAL) if workload == "prefill_long" else DECODE_VISUAL
        serve(state.model, Request("Vanilla", visual, DECODE_KEEP, DECODE_DEPTH,
                                   PREFILL_STEPS, _tokens(rng, visual)), probe)


def cycle_items(workload: str, state: State, seed: int, cycle: int, out_dir: str) -> list:
    if cycle == 0:
        return state.first_cycle
    if workload == "prefill_long":
        return prefill_cycle(seed, cycle)
    if workload == "decode_long":
        return decode_cycle(seed, cycle)
    return lab_cycle(seed, cycle, state.config_path, out_dir)
