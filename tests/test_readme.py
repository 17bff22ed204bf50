"""The README's `## Library` example runs, and its `## Command line` examples
parse, against the package as it is."""

import os
import re
import shlex

from phasecap import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_example_runs(capsys):
    with open(README) as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, README, "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(float(value) > 0 for value in printed)


def test_command_line_examples_parse():
    # a subcommand or flag the parser no longer has must not stay in the docs
    with open(README) as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["phasecap"]]
    assert commands
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words)
