"""The package imports only the standard library, numpy and itself, never the tests, and
nothing that starts or talks to another process or thread: it is one process."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motifx"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
TEST_MODULES = {"tests", "oracles", "conftest"}
CONCURRENCY = {"subprocess", "threading", "multiprocessing", "socket"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1, f"{path.name}:{node.lineno} imports from outside motifx"
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top not in TEST_MODULES, f"{path.name}:{node.lineno} imports {name}"
            assert top in ALLOWED, f"{path.name}:{node.lineno} imports {name}"
            assert top not in CONCURRENCY, f"{path.name}:{node.lineno} imports {name}"


def test_src_stays_within_its_line_budget():
    """`wc -l src/motifx/*.py` stays at or under 3,240 lines (ROADMAP aim 2)."""
    total = sum(len(path.read_bytes().splitlines()) for path in SRC.glob("*.py"))
    assert total <= 3240, f"src/motifx is {total} lines, over its 3,240-line budget"
