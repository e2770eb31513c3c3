"""The README's python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # Padded to its README line numbers, for the traceback.
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
