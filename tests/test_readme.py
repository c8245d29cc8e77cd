"""The README's library quick start runs as printed, and its reports pass."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_every_report_passes(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "completed 0.001"
    # one "<identity> <max residual> <passed>" line per Bianchi report
    reports = [line.split() for line in lines[2:]]
    assert [r[0] for r in reports] == [
        "bianchi-first",
        "bianchi-first-conjugate",
        "bianchi-second",
        "bianchi-second-conjugate",
    ]
    assert all(r[2] == "True" for r in reports), reports
