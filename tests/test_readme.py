"""The library quick start in README.md runs as written and keeps its promise."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {"__name__": "readme"})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    # closed-form and oracle von Neumann entropies, printed first and third
    closed_form, oracle = float(lines[0]), float(lines[2])
    assert abs(oracle - closed_form) < 1e-10
