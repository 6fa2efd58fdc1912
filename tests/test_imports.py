"""Every name a module imports is used.  No linter ships with the project,
so this walks the syntax tree of each module in ``src/sepal/`` (the package
``__init__``, which imports to re-export, aside) and each script."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "sepal").glob("*.py")
                 if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 2: b", "line 1: os"]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
