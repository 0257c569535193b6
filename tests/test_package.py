"""Package-wide source rules."""

import ast
import io
import tokenize
from pathlib import Path

import wrkit

PACKAGE = Path(wrkit.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_library_example_runs():
    # README's python block runs, and each "# value" comment is the repr of
    # the expression it follows, on its own line or on the line above
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index("```python\n") + len("```python\n")
    namespace = {}
    value = None
    checked = 0
    for line in text[start:text.index("```", start)].splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((tok.string for tok in tokens if tok.type == tokenize.COMMENT), "")
        code = line.removesuffix(comment).strip()
        if code:
            try:
                expression = compile(code, "README.md", "eval")
            except SyntaxError:
                exec(code, namespace)
                value = None
            else:
                value = repr(eval(expression, namespace))
        if comment:
            assert value == comment[1:].strip(), line
            checked += 1
    assert checked == 4
