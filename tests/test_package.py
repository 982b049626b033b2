import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "permlab"


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


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10, so every module of the
    # package and of the suite must parse as Python 3.10.  Best effort: the
    # feature_version check rejects newer syntax such as except*, but not all
    # of it; PEP 646 starred annotations, for one, still parse.
    sources = sorted(SOURCES.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
