#!/usr/bin/env python3
"""Print the source line count of the library, the figure tracked in the
`src_torstab_sloc` entry of the bench files.

    python3 scripts/sloc.py

The rule: every non-blank line of `src/torstab/**/*.py` whose first
non-blank character is not `#`.  Docstrings count as code.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "torstab"


def sloc(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


if __name__ == "__main__":
    print(sum(sloc(p) for p in sorted(SRC.rglob("*.py"))))
