import numpy as np
import pytest

from parvts.cost import (
    CostParams,
    CSV_COLUMNS,
    cost_report,
    csv_row,
    decoding_flops_parvts,
    decoding_flops_sequential,
    decoding_flops_vanilla,
    flops_layer,
    migration_depth_for,
    preset_migration_depths,
    prefill_flops_parvts,
    prefill_flops_sequential,
    prefill_flops_vanilla,
    schedule_cost,
    speedup_decoding,
    speedup_prefill,
)
from parvts.errors import InvalidArgumentError


def params(**overrides):
    base = dict(p=0.5, n=2, N=4, L_text=2, L_img=3, M=3, d=2, m=3)
    base.update(overrides)
    return CostParams(**base)


class TestFlopsLayer:
    def test_unit_substitution(self):
        assert flops_layer(1, 1, 1) == 8.0

    def test_hand_evaluation(self):
        assert flops_layer(2, 3, 5) == 240.0  # 80 + 100 + 60

    def test_zero_tokens(self):
        assert flops_layer(2, 3, 0) == 0.0


class TestPrefillVanilla:
    def test_single_layer(self):
        assert prefill_flops_vanilla(params(N=1, n=1)) == flops_layer(2, 3, 5)

    def test_two_layers_hand(self):
        assert prefill_flops_vanilla(params(N=2)) == 480.0

    def test_linear_in_layers(self):
        assert prefill_flops_vanilla(params(N=8)) == 2 * prefill_flops_vanilla(params(N=4))


class TestDecodingVanilla:
    def test_hand_evaluation_both_modes(self):
        p = params(N=1, n=1, d=1, m=1, L_text=1, L_img=1, M=3)
        assert decoding_flops_vanilla(p, mode="stepwise") == 36.0  # 10 + 12 + 14
        assert decoding_flops_vanilla(p, mode="closed") == 36.0

    def test_zero_steps(self):
        p = params(M=0)
        assert decoding_flops_vanilla(p, mode="stepwise") == 0.0
        assert decoding_flops_vanilla(p, mode="closed") == 0.0

    def test_stepwise_equals_closed_on_seeded_tuples(self):
        gen = np.random.Generator(np.random.Philox(key=[5, 0]))
        for _ in range(100):
            p = CostParams(
                p=0.5,
                n=1,
                N=int(gen.integers(1, 40)),
                L_text=int(gen.integers(0, 2000)),
                L_img=int(gen.integers(0, 2000)),
                M=int(gen.integers(0, 1001)),
                d=int(gen.integers(1, 512)),
                m=int(gen.integers(1, 2048)),
            )
            assert decoding_flops_vanilla(p, "stepwise") == decoding_flops_vanilla(p, "closed")

    def test_unknown_mode(self):
        with pytest.raises(InvalidArgumentError):
            decoding_flops_vanilla(params(), mode="magic")


class TestPrefillParvts:
    def test_no_pruning_equals_vanilla(self):
        p = params(p=0.0)
        assert prefill_flops_parvts(p) == prefill_flops_vanilla(p)

    def test_full_depth_equals_vanilla(self):
        p = params(n=4, p=0.9)
        assert prefill_flops_parvts(p) == prefill_flops_vanilla(p)

    def test_hand_evaluation(self):
        p = params(p=1.0, n=1, N=4, L_text=2, L_img=3, M=0)
        assert prefill_flops_parvts(p) == 456.0  # 240 + 3 * 72


class TestDecodingParvts:
    def test_no_pruning_equals_vanilla(self):
        p = params(p=0.0)
        assert decoding_flops_parvts(p) == decoding_flops_vanilla(p)

    def test_zero_steps(self):
        assert decoding_flops_parvts(params(M=0)) == 0.0

    def test_independent_of_migration_depth(self):
        values = {decoding_flops_parvts(params(n=n)) for n in range(1, 5)}
        assert len(values) == 1


class TestSequential:
    def test_prefill_hand_evaluation(self):
        p = params(n=1, N=4, L_text=2, L_img=3)
        assert prefill_flops_sequential(p, 1) == 648.0  # 120 + 3 * 176

    def test_all_visual_in_stage_one_at_full_depth_equals_vanilla(self):
        p = params(n=4, N=4)
        assert prefill_flops_sequential(p, 3) == prefill_flops_vanilla(p)

    def test_decoding_hand_evaluation(self):
        p = params(N=1, n=1, d=1, m=1, L_text=1, L_img=1, M=3)
        assert decoding_flops_sequential(p, 1) == 36.0  # 3 * (6 + 2 * (2 + 1))

    def test_decoding_zero_steps(self):
        assert decoding_flops_sequential(params(M=0), 1) == 0.0


class TestSpeedups:
    def test_prefill_one_at_p_zero(self):
        assert speedup_prefill(params(p=0.0)) == 1.0

    def test_prefill_one_at_full_depth(self):
        assert speedup_prefill(params(n=4, p=0.7)) == 1.0

    def test_prefill_hand_ratio(self):
        p = params(p=1.0, n=1, N=4, L_text=2, L_img=3, M=0)
        assert speedup_prefill(p) == 960.0 / 456.0

    def test_prefill_undefined_for_empty_sequence(self):
        with pytest.raises(InvalidArgumentError):
            speedup_prefill(params(L_text=0, L_img=0))

    def test_decoding_one_at_p_zero(self):
        assert speedup_decoding(params(p=0.0)) == 1.0

    def test_decoding_hand_ratio(self):
        p = params(d=1, m=1, L_text=2, L_img=4, M=1, p=0.5, n=1)
        assert speedup_decoding(p) == 9.0 / 7.0

    def test_decoding_equals_flops_ratio(self):
        gen = np.random.Generator(np.random.Philox(key=[8, 0]))
        for _ in range(50):
            p = CostParams(
                p=float(gen.integers(0, 11)) / 10.0,
                n=1,
                N=int(gen.integers(1, 40)),
                L_text=int(gen.integers(1, 1000)),
                L_img=int(gen.integers(0, 1000)),
                M=int(gen.integers(1, 500)),
                d=int(gen.integers(1, 512)),
                m=int(gen.integers(1, 2048)),
            )
            ratio = decoding_flops_vanilla(p) / decoding_flops_parvts(p)
            assert abs(speedup_decoding(p) - ratio) / ratio <= 1e-12


class TestScheduleCost:
    def test_report_parvts_half_is_schedule_cost(self):
        for M in (0, 1, 7):
            p = params(M=M)
            report = cost_report(p)
            assert schedule_cost(p) == (
                report.prefill_flops_parvts,
                report.decoding_flops_parvts,
                report.rho_prefill,
                report.rho_decoding,
            )

    def test_sequential_reads_its_formulas_over_vanilla(self):
        p = params(M=5)
        assert schedule_cost(p, first=1) == (
            prefill_flops_sequential(p, 1),
            decoding_flops_sequential(p, 1),
            prefill_flops_vanilla(p) / prefill_flops_sequential(p, 1),
            decoding_flops_vanilla(p) / decoding_flops_sequential(p, 1),
        )

    def test_parvts_ratios_are_the_speedups(self):
        p = params(M=5)
        assert schedule_cost(p)[2:] == (speedup_prefill(p), speedup_decoding(p))

    @pytest.mark.parametrize("first", [None, 0, 1, 3])
    def test_zero_decode_steps_read_rho_decoding_one(self, first):
        _, decoding, _, rho_decoding = schedule_cost(params(M=0), first)
        assert decoding == 0.0
        assert rho_decoding == 1.0


class TestMonotonicity:
    def test_prefill_speedup_at_least_one(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            for n in range(1, 5):
                rho = speedup_prefill(params(p=p, n=n, L_text=16, L_img=48))
                boundary = p == 0.0 or n == 4
                assert rho >= 1.0
                assert (rho == 1.0) == boundary

    def test_decoding_decreases_with_output_length(self):
        rhos = [
            speedup_decoding(params(p=0.5, M=M, L_text=16, L_img=48))
            for M in range(1, 33)
        ]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))


class TestCostParams:
    def test_length_is_derived(self):
        assert CostParams(p=0.5, n=1, N=2, L_text=2, L_img=3, M=1, d=1, m=1).L == 5

    def test_pruning_rate_bounds(self):
        with pytest.raises(InvalidArgumentError):
            params(p=1.5)

    def test_migration_depth_bounds(self):
        with pytest.raises(InvalidArgumentError):
            params(n=9)


class TestPresets:
    def test_known_lookups(self):
        assert migration_depth_for("LLaVA-1.5-7B") == 3
        assert migration_depth_for("Video-LLaVA-7B") == 24
        assert migration_depth_for("Qwen3-VL-2B") == 10

    def test_unknown_lookup(self):
        assert migration_depth_for("Mystery-99B") is None

    def test_table_shape(self):
        table = preset_migration_depths()
        assert len(table) == 14
        assert all(len(row) == 3 for row in table)


class TestCsv:
    def test_column_order(self):
        assert CSV_COLUMNS[0] == "p" and CSV_COLUMNS[-1] == "rho_decoding"

    def test_row_matches_report(self):
        p = params()
        row = csv_row(p).split(",")
        assert len(row) == len(CSV_COLUMNS)
        report = cost_report(p)
        assert float(row[8]) == report.prefill_flops_vanilla
        assert float(row[-1]) == report.rho_decoding


class TestSweepCost:
    def base(self, **overrides):
        fields = dict(p=0.0, n=1, N=4, L_text=8, L_img=16, M=4, d=8, m=16)
        fields.update(overrides)
        return CostParams(**fields)

    def test_zero_pruning_grid_all_ratios_one(self):
        rows = [csv_row(point) for point in (self.base(), self.base(n=3))]
        for row in rows:
            cells = row.split(",")
            assert float(cells[-2]) == 1.0  # rho_prefill
            assert float(cells[-1]) == 1.0  # rho_decoding

    def test_depth_sweep_keeps_decoding_constant(self):
        rows = [csv_row(self.base(p=0.5, n=n)) for n in range(1, 5)]
        decoding = {row.split(",")[-1] for row in rows}
        assert len(decoding) == 1

    def test_output_sweep_strictly_decreasing(self):
        rows = [csv_row(self.base(p=0.5, M=m)) for m in range(1, 9)]
        values = [float(row.split(",")[-1]) for row in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_header_matches_row_width(self):
        assert len(csv_row(self.base()).split(",")) == len(CSV_COLUMNS)
