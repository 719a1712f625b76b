"""The package's guards are real code: ``python -O`` strips every ``assert``."""

from __future__ import annotations

import ast
from pathlib import Path

import whitneydual


def test_no_module_of_the_package_asserts():
    modules = sorted(Path(whitneydual.__file__).parent.glob("*.py"))
    assert "lyndon.py" in {path.name for path in modules}
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
