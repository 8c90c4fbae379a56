"""`parvts cost`, `parvts sweep` and `parvts verify` must keep their output byte for byte.

Each file under tests/data/cli_*.txt holds, for one command line, the exit
code, stdout, stderr and (for `sweep`) the CSV it wrote, in the layout that
`render` produces. The cost and sweep files were written before the cost
model's fields were derived from `CostParams` / `CostReport`, so they pin the
flags, the printout order, the CSV columns and the `--L` consistency check.
cli_verify.txt pins every check's verdict and printed figures; its figures
date from before verify took its inputs and decodes from the harness. It
gained one line each when the sweep's and the ratio fit's time budgets
became checks of their own.
"""

from pathlib import Path

import pytest

from parvts.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

EIGHT_FLAGS = (
    "--p", "0.25", "--n", "5", "--N", "40", "--L_text", "35", "--L_img", "1024",
    "--M", "128", "--d", "5120", "--m", "13824",
)

CASES = {
    "cli_cost_defaults.txt": ("cost",),
    "cli_cost_preset.txt": ("cost", "--preset", "LLaVA-1.5-7B"),
    "cli_cost_all_flags.txt": ("cost", *EIGHT_FLAGS),
    "cli_cost_consistent_L.txt": ("cost", "--L", "640"),
    "cli_cost_inconsistent_L.txt": ("cost", "--L", "9", "--L_text", "2", "--L_img", "3"),
    "cli_sweep_p_n.txt": ("sweep", "--out", "sweep.csv", "p=0:1:0.25", "n=1,2,3"),
    "cli_sweep_M_L_text.txt": (
        "sweep", "--out", "sweep.csv", "M=1,2,4", "L_text=0,77", "--set", "cost.p=0.5",
    ),
    "cli_sweep_config.txt": (
        "sweep", "--out", "sweep.csv", "--config", str(ROOT / "demos" / "experiment.cfg"),
        "n=1,3,16,32", "p=0.5,0.889",
    ),
    "cli_verify.txt": ("verify",),
}


def render(argv, capsys) -> str:
    """Run `parvts *argv` in the current directory and lay out what it did."""
    code = main(list(argv))
    captured = capsys.readouterr()
    # the config path is absolute; record it relative to the repo
    shown = [a.replace(str(ROOT) + "/", "") for a in argv]
    parts = [f"$ parvts {' '.join(shown)}", f"exit {code}",
             "--- stdout", captured.out, "--- stderr", captured.err]
    csv = Path("sweep.csv")
    if csv.exists():
        parts += ["--- sweep.csv", csv.read_text(encoding="utf-8")]
    return "\n".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = render(CASES[name], capsys)
    assert text.encode("utf-8") == (DATA / name).read_bytes()
