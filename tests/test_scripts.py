"""Every script under scripts/ imports cleanly against the package, so a
renamed or deleted name they use fails here rather than at run time, and
the experiment runner runs end to end on its smallest setting."""
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # not as __main__, so main() does not run
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(load(path).main)


def test_experiment_runs_one_crit9_seed(monkeypatch, capsys):
    from ctcseq.decoder import DECODERS
    from ctcseq.training import ABLATION_ROWS

    experiment = load(SCRIPTS_DIR / "experiment.py")
    monkeypatch.setattr(sys, "argv", ["experiment.py", "--setup", "crit9", "--seeds", "0", "--epochs", "1"])
    experiment.main()
    seed_part, mean_part = capsys.readouterr().out.split("mean over seeds [0]:\n")
    seed_line, *seed_table, cells_line = seed_part.strip().splitlines()
    assert re.fullmatch(r"seed 0 \(\d+s\):", seed_line)
    for table in ("\n".join(seed_table), mean_part):
        header, *rows = table.strip().splitlines()
        assert header.split() == ["setting", *DECODERS]
        assert [row.split()[0] for row in rows] == [label for label, _, _ in ABLATION_ROWS]
    # the seed's cells at full precision, each of which its 4-decimal table shows rounded
    cells = json.loads(cells_line)
    assert list(cells) == [label for label, _, _ in ABLATION_ROWS]
    for row in seed_table[1:]:
        label, *shown = row.split()
        assert shown == [f"{cells[label][d]:.4f}" for d in DECODERS]
