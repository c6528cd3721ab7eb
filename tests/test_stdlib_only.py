"""The runtime and the scripts need nothing but Python: every module under
src/pairswitch and every script in tools/ imports only the standard library
and pairswitch itself, so the scripts run offline with no install."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pairswitch"
TOOLS = ROOT / "tools"


def _imports(path):
    """The top-level module name of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _outside(paths):
    """Each (file, module) import in ``paths`` of neither the standard
    library nor pairswitch."""
    return {
        (path.name, name)
        for path in paths
        for name in _imports(path)
        if name != "pairswitch" and name not in sys.stdlib_module_names
    }


def test_runtime_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "routing.py" in paths
    assert not _outside(paths)


def test_tools_import_only_the_standard_library_and_pairswitch():
    paths = sorted(TOOLS.glob("*.py"))
    assert TOOLS / "ab_bench.py" in paths and TOOLS / "brickwork_frames.py" in paths
    assert not _outside(paths)
