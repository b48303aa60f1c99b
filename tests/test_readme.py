"""The README's examples run as written and show what their comments say.
In the library example a comment that opens with a value names the value
of the expression on its line, "same" names the value of the line before,
and the comment on a print call is the printed line.  In the command-line
block the comment that states a value is what the command prints."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

from dedekind.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_its_comments():
    source = library_example()
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    previous = None
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        if isinstance(node.value, ast.Call) and getattr(node.value.func, "id", "") == "print":
            assert out.getvalue() == comment + "\n"
            shown.append(comment)
            continue
        word = re.match(r"[^\s:,]*", comment).group()
        expected = previous if word == "same" else ast.literal_eval(word)
        assert value == expected, lines[node.end_lineno - 1]
        shown.append(value)
        previous = value
    assert shown == [8, 8, True, "24*2^0 + 24*2^1 + 16*2^2 + 2*2^4"]


def command_examples() -> dict[str, str]:
    """The README's command-line block as {arguments after "dedekind":
    comment}."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    examples = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        examples[command.split(None, 1)[1].strip()] = comment.strip()
    return examples


def run_cli(capsys, command: str) -> str:
    assert main(command.split()) == 0
    return capsys.readouterr().out


def test_command_examples_match_their_comments(capsys):
    # the lines whose comment states a value, but count --n 7 (2 s); the
    # lines that read a poset file are left out
    examples = command_examples()
    for command in ("count --n 6", "decompose --n 3"):
        assert run_cli(capsys, command) == examples[command] + "\n"
    command = "verify --theorem corollary --n 4"
    checks, total = re.fullmatch(r"(\d+)/\1 splits sum to (\d+)", examples[command]).groups()
    lines = run_cli(capsys, command).splitlines()
    assert lines[-1] == f"{checks}/{checks} checks passed"
    sums = [re.search(r"\((\d+) \+ (\d+) = (\d+)\)$", line).groups()
            for line in lines if line.startswith("pivot ")]
    assert len(sums) == int(checks)
    assert all(int(a) + int(b) == int(c) == int(total) for a, b, c in sums)


def test_named_module_attributes_exist():
    # a backticked partition.X, poset.X, monotone.X or cli.X names an
    # attribute of that module; a file name such as partition.py does not
    text = README.read_text(encoding="utf-8")
    named = [
        (module, attr)
        for span in re.findall(r"`([^`\n]+)`", text)
        for module, attr in re.findall(r"\b(partition|poset|monotone|cli)\.(\w+)", span)
        if attr != "py"
    ]
    assert named
    for module, attr in named:
        assert hasattr(importlib.import_module(f"dedekind.{module}"), attr), f"{module}.{attr}"
