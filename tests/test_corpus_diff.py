import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_diff.py"

REPORT = {"kind": "kuranishi", "status": "ok",
          "report": {"greens_condition": 18.0, "dims": {"1": [0, 2, 1]},
                     "inverse": {"1": [[0.5, -1.0], [2.0, 0.0]]}}}


def dump(path, *entries):
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
    return str(path)


def diff(tmp_path, parent, change):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), dump(tmp_path / "parent.jsonl", *parent),
         dump(tmp_path / "change.jsonl", *change)],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_a_float_move_passes_and_is_reported_by_field(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["report"]["inverse"]["1"][1][0] = 2.0 + 1e-12
    code, out = diff(tmp_path, [["doc", 0, REPORT], ["other", 2, {"reason": "x"}]],
                     [["doc", 0, moved], ["other", 2, {"reason": "x"}]])
    assert code == 0, out
    assert "floats moved in 1" in out
    assert "report.inverse.1[][]: 1 documents, largest move 1e-12 abs, 5e-13 rel" in out


def test_an_int_move_fails(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["report"]["dims"]["1"][2] = 0
    code, out = diff(tmp_path, [["doc", 0, REPORT]], [["doc", 0, moved]])
    assert code == 1
    assert "doc: report.dims.1[]: 1 became 0" in out


def test_an_exit_code_or_a_float_for_an_int_fails(tmp_path):
    as_float = json.loads(json.dumps(REPORT))
    as_float["report"]["dims"]["1"][0] = 0.0
    assert diff(tmp_path, [["doc", 0, REPORT]], [["doc", 2, REPORT]])[0] == 1
    assert diff(tmp_path, [["doc", 0, REPORT]], [["doc", 0, as_float]])[0] == 1
