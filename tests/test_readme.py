import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example():
    """The README's API example runs, and each expression line's comment
    opens with the repr of its value."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python API in one minute")[1].split("```python\n")[1]
    block = block.split("```")[0]
    lines = block.splitlines()
    namespace: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
            assert comment.startswith(repr(value)), (comment, value)
            values.append(value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    assert values == [[1, 6, 9, 2], 0.0, True, Fraction(1, 3)]
