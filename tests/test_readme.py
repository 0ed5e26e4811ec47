"""README's "Library quick start" block runs, and prints what it says."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values():
    # each bare expression ends in ``# value`` or ``# value: remark``
    block = quick_start()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        expected = ast.literal_eval(comment.split(":", 1)[0].strip())
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert (type(got), got) == (type(expected), expected), ast.unparse(node)
        checked += 1
    assert checked == 8
