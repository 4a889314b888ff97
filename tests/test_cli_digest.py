"""tools/cli_digest.py: job comparison."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(path, stdout):
    row = {"job": "sweep_long/1/0", "kind": "approximate", "code": 0, "stdout": stdout, "stderr": ""}
    path.write_text(json.dumps(row) + "\n")


def test_compare_counts_a_byte_only_change(tmp_path, capsys):
    tool = load_tool()
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    dump(old, '{\n  "dist_sq": 1e-05\n}\n')
    dump(new, '{\n  "dist_sq": 1e-5\n}\n')
    assert tool.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "stdout bytes differ, values equal" in out
    assert "1 of 1 jobs differ" in out
    dump(new, '{\n  "dist_sq": 1e-05\n}\n')
    assert tool.compare(old, new) == 0
    assert "0 of 1 jobs differ" in capsys.readouterr().out
