"""Package-wide source rules."""

import ast
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
