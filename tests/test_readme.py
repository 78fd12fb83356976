"""README's module table renders as a table of two columns."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def module_table_rows(text: str) -> list[str]:
    """The rows of the table under "## What is in here", header included."""
    section = text.split("## What is in here", 1)[1].lstrip("\n")
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            break
        rows.append(line)
    return rows


def unescaped_pipes(row: str) -> int:
    """The cell delimiters of a table row: a pipe splits cells, in code
    spans too, unless a backslash escapes it."""
    return len(re.findall(r"(?<!\\)\|", row))


def test_every_module_table_row_has_two_cells():
    rows = module_table_rows(README.read_text())
    assert len(rows) > 2
    assert [row[:40] for row in rows if unescaped_pipes(row) != 3] == []


def test_unescaped_pipes_are_counted():
    assert unescaped_pipes("| `m` | V' = C' x| P' |") == 4
    assert unescaped_pipes(r"| `m` | V' = C' x\| P', \|H'\| |") == 3
