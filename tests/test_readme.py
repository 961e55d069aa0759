"""The README's "Library use" example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_use_block_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
