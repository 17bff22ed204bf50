"""The README's `## Library` example runs against the package as it is."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs(capsys):
    with open(README) as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, README, "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(value) > 0 for value in printed)
