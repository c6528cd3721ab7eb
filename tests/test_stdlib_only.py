"""The runtime needs nothing but Python: every module under src/pairswitch
imports only the standard library and pairswitch itself."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pairswitch"


def _imports(path):
    """The top-level module name of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "routing.py" in paths
    outside = {
        (path.name, name)
        for path in paths
        for name in _imports(path)
        if name != "pairswitch" and name not in sys.stdlib_module_names
    }
    assert not outside
