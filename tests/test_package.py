import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "permlab"


def test_package_imports_only_the_standard_library():
    # permlab is stdlib-only: every absolute import in the package names a
    # standard-library module; relative imports stay inside the package
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
