"""Two AST scans for code that nothing uses.  Every name a module imports
is used in it, in the package and in the tests: a name counts as used
when the module reads it (as a name or as the base of an attribute) or
lists it in __all__.  And every top-level function or class of the
package is read somewhere in the package or in perfbench/, which names
what it traces by string, or is listed in areal.__all__.  Every field
of a NamedTuple of the package is read as an attribute in the package or
in perfbench/.  Besides, a fresh interpreter that imports the package loads none of the stdlib's
introspection modules, which every run would pay for at start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench's traced matrix run patches cli.apply_config, which cli imports
# but does not call
ALLOWED = {("src/areal/cli.py", "apply_config")}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        f"{path.relative_to(ROOT).as_posix()}: {name}"
        for folder in ("src/areal", "tests")
        for path in sorted((ROOT / folder).glob("*.py"))
        for name in _unused_imports(path)
        if (path.relative_to(ROOT).as_posix(), name) not in ALLOWED
    ]
    assert unused == []
    # and the one allowed name is still imported and still unused
    assert all(name in _unused_imports(ROOT / path) for path, name in ALLOWED)


# dataclasses and the stdlib modules that only it loads; areal needs none
INTROSPECTION_MODULES = {
    "dataclasses", "inspect", "ast", "_ast", "dis", "opcode", "_opcode",
    "token", "tokenize", "linecache", "copy", "importlib.machinery",
}


def test_importing_the_package_loads_no_introspection_module():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import areal, areal.cli, sys; print(areal.__file__); print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    origin, loaded = proc.stdout.splitlines()
    assert Path(origin) == ROOT / "src" / "areal" / "__init__.py"
    assert sorted(INTROSPECTION_MODULES.intersection(loaded.split())) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport os.path as osp\nfrom math import gcd, pi\n\nprint(pi, osp)\n")
    assert _unused_imports(module) == ["gcd", "os"]


def _reads(path: Path) -> set[str]:
    """Every name the module reads: names, attributes, imported names and
    string constants (so every name listed in an __all__)."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def _dead_definitions(defining: list[Path], reading: list[Path]) -> list[str]:
    """The top-level functions and classes of the defining modules that no
    reading module reads."""
    reads = set().union(*map(_reads, reading))
    return [
        f"{path.name}: {node.name}"
        for path in defining
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in reads
    ]


def test_every_definition_of_the_package_is_read():
    package = sorted((ROOT / "src/areal").glob("*.py"))
    assert _dead_definitions(package, package + sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_the_scan_sees_a_dead_definition(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n\n__all__ = ['exported']\n\n"
        "def exported(): pass\ndef called(): pass\ndef dead(): pass\n"
        "class Dead: pass\nclass Attr: pass\ndef traced(): pass\n\n"
        "called()\nos.Attr\nNAME = 'traced'\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from module import exported as e\n")
    assert _dead_definitions([module], [module]) == ["module.py: dead", "module.py: Dead"]
    assert _dead_definitions([module], [reader]) == [
        f"module.py: {name}" for name in ("called", "dead", "Dead", "Attr", "traced")
    ]


def _dead_fields(defining: list[Path], reading: list[Path]) -> list[str]:
    """The fields of the defining modules' NamedTuple classes that no
    reading module reads as an attribute.  A name read on any object
    counts, so a field that shares its name with an attribute read
    elsewhere (such as spec) is never reported."""
    attrs = {
        node.attr
        for path in reading
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
    }
    return [
        f"{path.name}: {node.name}.{field.target.id}"
        for path in defining
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in attrs
    ]


def test_every_record_field_of_the_package_is_read():
    package = sorted((ROOT / "src/areal").glob("*.py"))
    assert _dead_fields(package, package + sorted((ROOT / "perfbench").glob("*.py"))) == []


def test_the_scan_sees_a_dead_field(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import typing\nfrom typing import NamedTuple\n\n"
        "class Record(NamedTuple):\n    read: int\n    dead: int\n    named: int = 0\n\n"
        "    def total(self):\n        return self.read\n\n"
        "class Plain:\n    unread: int\n\n"
        "class Other(typing.NamedTuple):\n    spec: int\n\n"
        "NAME = 'named'\nprint(Record(1, 2).total(), object().spec)\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("import module\n\nprint(module.Record(1, 2).dead)\n")
    # a string does not read a field, and a plain class has no fields
    assert _dead_fields([module], [module]) == ["module.py: Record.dead", "module.py: Record.named"]
    assert _dead_fields([module], [module, reader]) == ["module.py: Record.named"]
    assert _dead_fields([module], [reader]) == [
        "module.py: Record.read", "module.py: Record.named", "module.py: Other.spec",
    ]
