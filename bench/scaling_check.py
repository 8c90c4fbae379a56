"""Check that host-speed scaling keeps a change in parvts's own cost.

    python3 bench/scaling_check.py --workload decode_long --inject memory --blocks 8

Serves blocks of requests twice, once as they are and once with extra cost
injected from the benchmark side (nothing under `src/` changes): after every
`model.decode_step` call (decode_long) or `scheduler.run_layers` call
(prefill_long) it runs either a fixed amount of extra compute (`compute`), a
pass over a fresh temporary array (`memory`, a larger working set), or
nothing (`none`, the control). The two passes over a block run seconds
apart, in alternating order, so the host's drift hits both alike and the
median over requests of injected / plain raw time is the injection's own
effect. If the probe's scale follows only the host, the same ratio over
scaled times matches it; if the injection also slows or speeds the probe
kernel (shared caches, allocator), the two ratios part.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("prefill_long", "decode_long"), required=True)
    parser.add_argument("--inject", choices=("none", "compute", "memory"), required=True)
    parser.add_argument("--blocks", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--matmuls", type=int, help="128 x 128 matmuls per call (compute)")
    parser.add_argument("--mb", type=int, help="MB of temporary array per call (memory)")
    args = parser.parse_args(argv)

    run._pin_blas_threads()
    sys.path.insert(0, str(run.SRC_DIR))
    import numpy as np
    from parvts import model as pm
    from parvts import scheduler as sched

    import workloads as wl
    from hostspeed import Probe

    square = np.random.default_rng(0).standard_normal((128, 128))
    decode = args.workload == "decode_long"
    matmuls = args.matmuls or (4 if decode else 150)
    mb = args.mb or (8 if decode else 64)

    def extra() -> None:
        if args.inject == "compute":
            for _ in range(matmuls):
                square @ square
        elif args.inject == "memory":
            np.ones(mb * 2**17).sum()

    owner, attr = (pm, "decode_step") if decode else (sched, "run_layers")
    original = getattr(owner, attr)

    def injected(*a, **kw):
        result = original(*a, **kw)
        extra()
        return result

    run.OUT_DIR.mkdir(exist_ok=True)
    state = wl.setup(args.workload, args.seed, str(run.OUT_DIR))
    probe = Probe()
    wl.warm_up(args.workload, state, args.seed, probe)
    served = []  # (block, index, injected, outcome)
    spans = {False: [], True: []}
    for block in range(args.blocks):
        if decode:
            items = wl.decode_cycle(args.seed, block)
        else:  # 9 requests of a prefill cycle, a block of about 2 s
            items = wl.prefill_cycle(args.seed, block // 5)[9 * (block % 5):9 * (block % 5 + 1)]
        for inject in (False, True) if block % 2 == 0 else (True, False):
            setattr(owner, attr, injected if inject else original)
            try:
                probe.sample()
                begin = probe.times[-1]
                for index, item in enumerate(items):
                    served.append((block, index, inject, wl.serve(state.model, item, probe)))
                probe.sample()
                spans[inject].append((begin, probe.times[-1]))
            finally:
                setattr(owner, attr, original)

    def cost(outcome, scaled: bool) -> float:
        clock = probe.scaled_ms if scaled else run.UNSCALED.scaled_ms
        if decode:
            return statistics.median(clock(b, e) for b, e in outcome.itl)
        return clock(*outcome.ttft)

    pairs = {}
    for block, index, inject, outcome in served:
        assert not outcome.problems, outcome.problems
        pairs.setdefault((block, index), {})[inject] = outcome
    metric = "per-request median ITL" if decode else "TTFT"
    what = {"none": "nothing", "compute": f"{matmuls} 128 x 128 matmuls",
            "memory": f"a pass over a fresh {mb} MB array"}[args.inject]
    print(f"{args.workload}: {what} after every {attr} call")
    for scaled in (False, True):
        ratios = [cost(p[True], scaled) / cost(p[False], scaled) for p in pairs.values()]
        print(f"  {'scaled' if scaled else 'raw   '} {metric}: injected / plain median "
              f"{statistics.median(ratios):.4f} over {len(ratios)} pairs")
    for inject in (False, True):
        inside = [i for i, t in enumerate(probe.times) if any(b < t < e for b, e in spans[inject])]
        kernel = [probe.samples_ms[i] for i in inside]
        cold = [probe.cold_ms[i] / probe.samples_ms[i] for i in inside]
        print(f"  probe kernel during {'injected' if inject else 'plain   '} passes: median "
              f"{statistics.median(kernel):.4g} ms over {len(kernel)} samples; first (cold) "
              f"run / kept run median {statistics.median(cold):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
