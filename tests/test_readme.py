"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The python blocks of the README's "## Library use" section, in order."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_blocks_run(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # a later block uses the names an earlier one made
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4  # one line from the first block, one per delta from the second
