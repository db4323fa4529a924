"""README's Python quick tour runs, and its numeric comments are its values."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _numbers(comment):
    """The number or flat list of numbers a comment claims, or None."""
    try:
        value = ast.literal_eval(comment)
    except (SyntaxError, ValueError):
        return None
    values = value if isinstance(value, list) else [value]
    if values and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return values
    return None


def _decimals(text):
    """Digits after the point of each number written in ``text``."""
    return [len(frac) for frac in re.findall(r"\d+(?:\.(\d*))?", text)]


def test_quick_tour_values_match_their_comments():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    # run the block a statement at a time, keeping each expression's value by its line
    ns, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values[node.lineno] = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
    claims = 0
    for lineno, line in enumerate(block.splitlines(), 1):
        code, _, comment = line.partition("#")
        want = _numbers(comment.strip())
        if want is None:
            continue
        claims += 1
        got = values[lineno]
        got = [float(v) for v in (got if len(want) > 1 else [got])]
        # each value, rounded to the decimals the comment shows, is the comment's number
        assert [round(v, d) for v, d in zip(got, _decimals(comment))] == want, code.strip()
    assert claims >= 2  # the q_entropy value and the maxent law at least
