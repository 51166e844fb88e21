"""Every name a temperhmc module imports is used in that module, every
third-party module it imports is a declared runtime dependency, and only
network.py, where PriorBox.inside lives, compares anything with the prior
box's half_width.

No linter ships with the project, so this walks each module's syntax tree.
"""

import ast
import os
import re
import subprocess
import sys
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


def half_width_comparisons(tree):
    """Line numbers of the comparisons with an operand that is an attribute
    named half_width."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(operand, ast.Attribute) and operand.attr == "half_width"
                    for operand in (node.left, *node.comparators))]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "network.py"),
                         ids=lambda p: p.stem)
def test_only_the_prior_box_compares_with_its_walls(path):
    # a membership test of the box goes through PriorBox.inside
    assert half_width_comparisons(ast.parse(path.read_text())) == []


def test_check_sees_a_comparison_with_a_wall():
    tree = ast.parse("a = abs(w) < box.half_width\nb = box.half_width >= x > 0\n"
                     "c = 2 * box.half_width\nd = x < half_width\n")
    assert half_width_comparisons(tree) == [1, 2]


def third_party_modules(tree):
    """Top-level names of the absolute imports outside the standard library."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"temperhmc"}


def test_third_party_imports_are_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = set().union(*(third_party_modules(ast.parse(p.read_text()))
                             for p in PACKAGE.glob("*.py")))
    assert imported - declared == set()


def test_check_sees_a_third_party_import():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom scipy.special import erf\n"
                     "from . import hmc\nfrom temperhmc import ti\n")
    assert third_party_modules(tree) == {"numpy", "scipy"}


def modules_loaded_by_cli_import(prefix):
    code = ("import sys, temperhmc.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_importlib_metadata():
    # the package version is temperhmc.__version__; asking the installed
    # metadata for it cost every process about 1 MB of RSS and 25 ms
    assert modules_loaded_by_cli_import("importlib.metadata") == "[]"
