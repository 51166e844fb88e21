"""Every name a temperhmc module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree.
"""

import ast
from pathlib import Path

import pytest

import temperhmc

PACKAGE = Path(temperhmc.__file__).parent

# Imports kept on purpose, by module.
EXEMPT = {
    # bench/test_bench.py's tracing test checks that patching reaches this
    # second import site of a traced name
    "replica": {"tune_step_size"},
}


def unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert unused - EXEMPT.get(path.stem, set()) == set()


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert unused_imports(tree) == {"os", "tau"}
