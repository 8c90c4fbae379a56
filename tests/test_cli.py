import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from parvts.cli import _build_parser, main
from parvts.configfile import (
    SCHEMA,
    ConfigError,
    experiment_config_from,
    parse_config_text,
    resolve,
)
from parvts.cost import CostParams
from parvts.harness import RUN_KEYS, ExperimentConfig
from parvts.model import ModelConfig
from parvts.scheduler import ScheduleConfig, Strategy
import parvts.verify as verify
from parvts.verify import (
    SweepRun,
    check_oracle_equivalence,
    check_ratio_fit_runtime,
    check_reference_ratio_fit,
    check_sweep_runtime,
    ratio_fit,
    sweep_cases,
)

ROOT = Path(__file__).resolve().parents[1]

MINIMAL_CONFIG = """\
# desk-scale run
model.layers = 3
model.hidden_dim = 16
model.heads = 2
model.mlp_dim = 32
model.vocab = 53
tokens.system = 2
tokens.visual = 8
tokens.question = 4
schedule.strategy = ParVTSBatch
schedule.migration_depth = 2
partition.keep_count = 3
decode.steps = 2
"""


class TestConfigFile:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model.width"):
            parse_config_text("model.width = 7\n")

    def test_defaults_applied(self):
        resolved = resolve()
        assert resolved["schedule.alpha"] == "0.5"
        assert resolved["schedule.beta"] == "0.5"
        assert resolved["schedule.joint_prefix"] == "1"
        assert resolved["schedule.strategy"] == "ParVTSBatch"

    def test_overrides_win_over_file(self):
        values = parse_config_text(MINIMAL_CONFIG)
        resolved = resolve(values, ["schedule.alpha=0", "schedule.beta=1"])
        assert resolved["schedule.alpha"] == "0"
        assert resolved["schedule.beta"] == "1"

    def test_repeated_key_names_both_lines(self):
        text = "model.layers = 4\n# deeper\nmodel.layers = 6\n"
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == "line 3: key 'model.layers' already set on line 1"

    def test_repeated_key_in_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL_CONFIG + "model.layers = 6\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: line 14: key 'model.layers' already set on line 2\n"
        )
        assert not (tmp_path / "r.txt").exists()

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("model.layers\n")

    def test_experiment_includes_vanilla_baseline(self):
        config = experiment_config_from(resolve(parse_config_text(MINIMAL_CONFIG)))
        assert config.strategies[0] is Strategy.VANILLA
        assert Strategy.PARVTS_BATCH in config.strategies

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="model.layers"):
            experiment_config_from(resolve(None, ["model.layers=three"]))

    def test_every_field_has_exactly_one_run_key(self):
        derived = {"max_positions", "strategies", "model", "schedule"}
        for owner in (ModelConfig, ScheduleConfig, ExperimentConfig):
            keyed = [name for o, name, _ in RUN_KEYS.values() if o is owner]
            assert sorted(keyed) == sorted({f.name for f in fields(owner)} - derived)

    def test_schema_is_run_keys_plus_cost_fields(self):
        cost_keys = {f"cost.{f.name}" for f in fields(CostParams)}
        assert set(SCHEMA) == set(RUN_KEYS) | cost_keys
        assert len(SCHEMA) == len(RUN_KEYS) + len(cost_keys)


class TestCmdRun:
    def test_minimal_config_writes_report(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(MINIMAL_CONFIG)
        out = tmp_path / "report.txt"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "rho_prefill" in capsys.readouterr().out

    def test_keep_count_over_visual_fails_naming_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(MINIMAL_CONFIG.replace("partition.keep_count = 3", "partition.keep_count = 99"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert "keep_count" in capsys.readouterr().err

    def test_set_overrides_reach_echo(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(MINIMAL_CONFIG)
        out = tmp_path / "report.txt"
        code = main(
            [
                "run",
                "--config", str(config),
                "--set", "schedule.alpha=0",
                "--set", "schedule.beta=1",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "schedule.alpha = 0" in text
        assert "schedule.beta = 1" in text

    def test_cached_parser_keeps_no_override_between_calls(self, tmp_path):
        assert _build_parser() is _build_parser()
        config = tmp_path / "run.cfg"
        config.write_text(MINIMAL_CONFIG)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert main(["run", "--config", str(config), "--set", "model.seed=5",
                     "--out", str(first)]) == 0
        assert main(["run", "--config", str(config), "--out", str(second)]) == 0
        assert "  model.seed = 5\n" in first.read_text()
        echo = second.read_text()
        assert "  model.seed = 0\n" in echo
        assert "model.seed = 5" not in echo

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ("model.layers=0", "model.layers must be >= 1"),
            ("model.vocab=1", "model.vocab must be >= 2"),
            ("model.mlp_dim=0", "model.mlp_dim must be >= 1"),
            ("model.heads=0", "model.heads must be >= 1"),
            ("model.heads=3", "model.hidden_dim 32 not divisible by model.heads 3"),
            ("model.hidden_dim=12",
             "model.hidden_dim 12 / model.heads 4 must be even for rotary encoding"),
            ("schedule.migration_depth=9", "schedule.migration_depth 9 outside [1, 4]"),
            ("schedule.strategy=Vanilla schedule.migration_depth=9",
             "schedule.migration_depth 9 outside [1, 4]"),
            ("schedule.strategy=Vanilla schedule.migration_depth=0",
             "schedule.migration_depth 0 outside [1, 4]"),
            ("schedule.joint_prefix=5",
             "schedule.joint_prefix 5 outside [0, schedule.migration_depth 2]"),
            ("schedule.strategy=Vanilla schedule.joint_prefix=5",
             "schedule.joint_prefix 5 outside [0, schedule.migration_depth 2]"),
            ("schedule.alpha=0.7",
             "schedule.alpha 0.7 and schedule.beta 0.5 must be >= 0 and sum to 1"),
            ("schedule.alpha=nan",
             "schedule.alpha nan and schedule.beta 0.5 must be >= 0 and sum to 1"),
            ("schedule.strategy=Vanilla schedule.alpha=nan",
             "schedule.alpha nan and schedule.beta 0.5 must be >= 0 and sum to 1"),
            ("schedule.beta=nan",
             "schedule.alpha 0.5 and schedule.beta nan must be >= 0 and sum to 1"),
            ("partition.keep_count=99", "partition.keep_count 99 outside [0, tokens.visual = 16]"),
            ("tokens.visual=0", "tokens.visual must be >= 1"),
            ("decode.steps=-1", "decode.steps must be >= 0"),
            ("decode.steps=-30", "decode.steps must be >= 0"),
            ("tokens.system=-100", "tokens.system must be >= 0"),
            ("tokens.question=-50", "tokens.question must be >= 1"),
            ("partition.saliency=/nonexistent",
             "partition.saliency: [Errno 2] No such file or directory: '/nonexistent'"),
        ],
    )
    def test_bad_value_error_names_key(self, tmp_path, capsys, overrides, message):
        sets = [arg for item in overrides.split() for arg in ("--set", item)]
        code = main(["run", *sets, "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            ("0.5\nabc\n", "partition.saliency: line 2: not a decimal float: 'abc'"),
            ("0.5\n0.25\n0.75\n", "partition.saliency has 3 values for tokens.visual = 16"),
        ],
    )
    def test_bad_saliency_file_names_key(self, tmp_path, capsys, content, message):
        saliency = tmp_path / "saliency.txt"
        saliency.write_text(content)
        argv = ["run", "--set", f"partition.saliency={saliency}", "--out", str(tmp_path / "r.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_defaults_only_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--out", "report.txt"]) == 0

    @staticmethod
    def _assert_echo_replays(tmp_path, config, overrides):
        """Feeding a report's config block back in as a file reproduces the report."""
        first_out = tmp_path / "first.txt"
        argv = ["run", "--config", str(config), "--out", str(first_out)]
        assert main(argv + [arg for item in overrides for arg in ("--set", item)]) == 0
        first = first_out.read_text()
        echo = first.split("config {\n", 1)[1].split("\n}\n", 1)[0]
        replay_config = tmp_path / "replay.cfg"
        replay_config.write_text(echo + "\n")
        second_out = tmp_path / "second.txt"
        assert main(["run", "--config", str(replay_config), "--out", str(second_out)]) == 0
        assert second_out.read_text() == first

    def test_report_echo_replays_identically(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(MINIMAL_CONFIG)
        self._assert_echo_replays(tmp_path, config, ["schedule.alpha=0.25", "schedule.beta=0.75"])

    def test_demo_config_echo_replays_identically(self, tmp_path):
        overrides = ["schedule.alpha=0.25", "schedule.beta=.75", "tokens.visual=20", "cost.p=0.25"]
        self._assert_echo_replays(tmp_path, ROOT / "demos" / "experiment.cfg", overrides)


class TestCmdCost:
    def test_zero_pruning_prints_unit_ratios(self, capsys):
        code = main(["cost", "--p", "0", "--n", "1", "--N", "4", "--L_text", "8",
                     "--L_img", "16", "--M", "4", "--d", "8", "--m", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho_prefill = 1.0" in out
        assert "rho_decoding = 1.0" in out

    def test_hand_example(self, capsys):
        code = main(["cost", "--p", "1", "--n", "1", "--N", "4", "--L_text", "2",
                     "--L_img", "3", "--M", "0", "--d", "2", "--m", "3"])
        assert code == 0
        assert "prefill_flops_parvts = 456.0" in capsys.readouterr().out

    def test_preset_sets_migration_depth(self, capsys):
        shared = ["--p", "0.5", "--N", "32", "--L_text", "64", "--L_img", "576",
                  "--M", "1", "--d", "4096", "--m", "11008"]
        assert main(["cost", "--preset", "LLaVA-1.5-7B", *shared]) == 0
        preset_out = capsys.readouterr().out
        assert main(["cost", "--n", "3", *shared]) == 0
        explicit_out = capsys.readouterr().out
        assert preset_out == explicit_out
        # a preset overrides cost.n from --set or a config file; only --n conflicts
        assert main(["cost", "--preset", "LLaVA-1.5-7B", "--set", "cost.n=5", *shared]) == 0
        assert capsys.readouterr().out == explicit_out

    def test_unknown_preset(self, capsys):
        code = main(["cost", "--preset", "Mystery-1B"])
        assert code == 1
        assert "preset" in capsys.readouterr().err

    def test_inconsistent_length_rejected(self, capsys):
        code = main(["cost", "--p", "0", "--L", "9", "--L_text", "2", "--L_img", "3"])
        assert code == 1
        assert "L_text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--M", "-1"], "error: M must be >= 0"),
            (["cost", "--set", "cost.d=-3"], "error: d must be >= 0"),
            (["sweep", "--out", "sweep.csv", "L_img=-5,3"], "error: L_img must be >= 0"),
            (["sweep", "--out", "sweep.csv", "n=1:3:0.5"],
             "error: bad grid axis 'n=1:3:0.5': n = 1.5 is not an integer"),
            (["sweep", "--out", "sweep.csv", "N=32.9"],
             "error: bad grid axis 'N=32.9': N = 32.9 is not an integer"),
            (["sweep", "--out", "sweep.csv", "M=inf"],
             "error: bad grid axis 'M=inf': M = inf is not an integer"),
            (["cost", "--d", "0"],
             "error: prefill speedup undefined: the ParVTS prefill costs 0 FLOPs "
             "(d = 0 or L_text + L_img = 0)"),
            (["cost", "--preset", "LLaVA-1.5-7B", "--n", "5"],
             "error: --preset and --n both set the migration depth; pass one"),
            (["sweep", "--out", "sweep.csv", "p=0.1,0.3", "p=0.2"],
             "error: sweep axis 'p' given more than once"),
            (["cost", "--N", "2"], "error: migration depth n = 3 outside [1, N = 2]"),
            (["cost", "--L_img", "1" + "0" * 200],
             "error: prefill_flops_vanilla = inf is not finite"),
            (["sweep", "--out", "sweep.csv", "d=1e300"],
             "error: prefill_flops_vanilla = inf is not finite"),
        ],
    )
    def test_negative_count_names_key(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == message


class TestCmdSweep:
    def test_single_point(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--out", str(out), "p=0.5"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("p,n,N,L_text,L_img,M,d,m,")

    def test_depth_range_constant_decoding(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--out", str(out), "n=1:4:1", "--set", "cost.N=4"])
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 4
        assert len({line.split(",")[-1] for line in lines}) == 1

    def test_empty_grid_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_malformed_range_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "s.csv"), "p=0:1"])
        assert code == 1
        assert "p=0:1" in capsys.readouterr().err

    def test_comma_list_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--out", str(out), "M=1,2,4", "--set", "cost.p=0.5"])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[-1]) for r in rows]
        assert values[0] > values[1] > values[2]


class TestCmdVerify:
    def test_fault_injected_fusion_detected(self, capsys, monkeypatch):
        import parvts.scheduler as scheduler

        def broken_fusion(t_non, t_sub, alpha, beta):
            return np.asarray(t_non, dtype=np.float64)  # beta ignored

        monkeypatch.setattr(scheduler, "fuse_question_states", broken_fusion)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL oracle_equivalence" in out

    def test_slow_sweep_fails_only_the_budget_line(self):
        assert check_oracle_equivalence([SweepRun(case) for case in sweep_cases()]).passed
        budget = check_sweep_runtime(31.0)
        assert budget.name == "sweep_runtime_under_30s"
        assert not budget.passed

    def test_slow_ratio_fit_fails_only_the_budget_line(self):
        fit = check_reference_ratio_fit(ratio_fit())
        assert fit.passed and "budget" not in fit.detail
        budget = check_ratio_fit_runtime(1.0)
        assert (budget.name, budget.passed, budget.detail) == (
            "reference_ratio_fit_under_1s", False, "no"
        )

    def test_run_checks_builds_each_shared_input_once(self, monkeypatch):
        built = {"sweep": 0, "setup": 0, "fit": 0}

        class CountedRun(SweepRun):
            def __init__(self, case):
                built["sweep"] += 1
                super().__init__(case)

        def counted(key, build):
            def wrapper():
                built[key] += 1
                return build()
            return wrapper

        monkeypatch.setattr(verify, "SweepRun", CountedRun)
        monkeypatch.setattr(verify, "_reduction_setup", counted("setup", verify._reduction_setup))
        monkeypatch.setattr(verify, "ratio_fit", counted("fit", verify.ratio_fit))
        assert all(r.passed for r in verify.run_checks())
        assert built == {"sweep": 27, "setup": 1, "fit": 1}


class TestConsoleEntry:
    def test_installed_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "parvts.cli", "--help"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
        )
        # argparse exits 0 on --help via SystemExit
        assert proc.returncode == 0
        assert "run" in proc.stdout and "verify" in proc.stdout

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--n", "2.0"], "error: argument --n: invalid int value: '2.0'"),
            (["run", "--bogus"], "error: unrecognized arguments: --bogus"),
            ([], "error: the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_1_with_one_error_line(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [message])
