"""The package's guards are real code: ``python -O`` strips every ``assert``;
and the package runs on the standard library alone."""

from __future__ import annotations

import ast
import sys
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


def test_the_package_imports_only_the_standard_library():
    modules = sorted(Path(whitneydual.__file__).parent.glob("*.py"))
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("cli.py", "argparse") in imported
    outside = sorted(
        f"{name}: {module}" for name, module in imported
        if module.partition(".")[0] not in sys.stdlib_module_names | {"whitneydual"}
    )
    assert outside == []
