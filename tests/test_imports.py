"""Every name a module imports is used.  No linter ships with the project,
so this walks the syntax tree of each module in ``src/sepal/`` (the package
``__init__``, which imports to re-export, aside), each script, each test
and each file of the benchmark."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "sepal").glob("*.py")
                 if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))
# the unused-import check also reads the tests and the whole benchmark; the
# caller walk below keeps its own file list, so no test counts as a caller
IMPORT_CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "sepalbench").rglob("*.py"))


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


@pytest.mark.parametrize("path", IMPORT_CHECKED,
                         ids=[p.relative_to(ROOT).as_posix()
                              for p in IMPORT_CHECKED])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Public names kept although only the tests call them, each with its reason.
KEPT_FOR_TESTS = {
    # the irreducible words up to a length; the planned normal form of
    # L(E, w) and its injectivity check for phi_vw are built on them
    "basis_words",
}
CALLER_FILES = MODULES + sorted((ROOT / "sepalbench").glob("*.py"))


def referenced_names(node) -> set[str]:
    """Identifiers a syntax tree reads, imports or names in a string such
    as a tracer target ``"normal_form"`` or ``"AlgElement.__mul__"``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value.split(".")[0])
    return out


def public_names_without_caller(files) -> list[str]:
    """Top-level public ``def`` and ``class`` names of the library modules
    among ``files`` that no other top-level statement of ``files`` uses."""
    defined, uses = [], []
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.parent.name == "sepal"
                    and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((path.stem, node))
            uses.append((node, referenced_names(node)))
    return [f"{mod}.{node.name}" for mod, node in defined
            if not any(node.name in names
                       for other, names in uses if other is not node)]


def test_public_names_without_caller_are_found(tmp_path):
    lib = tmp_path / "sepal"
    lib.mkdir()
    (lib / "a.py").write_text(
        "def used():\n    pass\n\n"
        "def alone():\n    alone()\n\n"
        "class Traced:\n    pass\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from sepal.a import used\nused()\nTARGET = 'Traced.method'\n")
    files = [lib / "a.py", tmp_path / "b.py"]
    assert public_names_without_caller(files) == ["a.alone"]


def test_public_names_have_a_caller():
    orphans = {n.split(".")[1]: n
               for n in public_names_without_caller(CALLER_FILES)}
    assert sorted(orphans.keys() - KEPT_FOR_TESTS) == []
    assert KEPT_FOR_TESTS <= orphans.keys(), "a kept name now has a caller"


# pyproject.toml sets requires-python = ">=3.10", so every source file must
# parse with the 3.10 grammar
PYTHON_FLOOR = (3, 10)
FLOOR_FILES = sorted({*MODULES, (ROOT / "src" / "sepal" / "__init__.py"),
                      *(ROOT / "sepalbench").rglob("*.py"),
                      *(ROOT / "tests").glob("*.py")})


@pytest.mark.parametrize("path", FLOOR_FILES,
                         ids=[p.relative_to(ROOT).as_posix() for p in FLOOR_FILES])
def test_sources_parse_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=PYTHON_FLOOR)


def test_the_floor_parse_refuses_newer_syntax():
    # except* is 3.11 syntax: later interpreters parse it unless told to
    # stop at the floor
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=PYTHON_FLOOR)
