"""Every name a module imports is used in it: an AST scan of the package
and of the tests.  A name counts as used when the module reads it (as a
name or as the base of an attribute) or lists it in __all__."""

import ast
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


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport os.path as osp\nfrom math import gcd, pi\n\nprint(pi, osp)\n")
    assert _unused_imports(module) == ["gcd", "os"]
