"""The README's library example runs as written and shows what its comments
say: a comment that opens with a value names the value of the expression
on its line, "same" names the value of the line before, and the comment on
a print call is the printed line."""

import ast
import contextlib
import io
import re
from pathlib import Path

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
