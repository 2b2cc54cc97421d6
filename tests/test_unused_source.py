"""No source code that only tests call, and no import a module does not use.

A definition is a module-level function, class or constant, or a method of
a module-level class.  It counts as used when its name is read as a name or
an attribute (``ast.Name`` or ``ast.Attribute``, f-string expressions
included; never in a comment or a plain string) in some module other than
__init__.py, outside the lines of its own definition.  Dunder names are
exempt.  Every name an import binds in a module other than __init__.py must
be read in that module.
"""

import ast
from pathlib import Path

import ballfourier

SRC = Path(ballfourier.__file__).parent


def _definitions(tree):
    """(name, first line, last line) of each checked definition of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of every name or attribute the module reads, f-string expressions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _modules(src):
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}


def unused_definitions(src=SRC):
    modules = _modules(src)
    uses = {mod: list(_uses(tree)) for mod, tree in modules.items() if mod != "__init__.py"}
    unused = []
    for mod, tree in modules.items():
        for qualname, first, last in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            used = any(
                use == name and not (other == mod and first <= line <= last)
                for other, names in uses.items()
                for use, line in names
            )
            if not used:
                unused.append(f"{mod[:-3]}.{qualname}")
    return unused


def unused_imports(src=SRC):
    """module.name of every name an import binds in a module other than __init__.py and the module never reads."""
    unused = []
    for mod, tree in _modules(src).items():
        if mod == "__init__.py":
            continue
        read = {name for name, _ in _uses(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{mod[:-3]}.{name}" for name in bound if name not in read]
    return unused


def test_every_source_definition_has_a_caller_in_source():
    assert unused_definitions() == []


def test_every_source_import_is_used_in_its_module():
    assert unused_imports() == []


def test_scan_flags_a_definition_only_its_own_body_names(tmp_path):
    """A recursive helper, a method, a constant named only in __init__.py, comments or strings, and an unused
    import are flagged; a name read only inside an f-string is used."""
    (tmp_path / "__init__.py").write_text("from .a import ORPHAN, helper\n")
    (tmp_path / "a.py").write_text(
        '"""helper and ORPHAN are named in this docstring."""\n'
        "from __future__ import annotations\n\n"
        "import os\n"
        "import sys\n"
        "from math import pi, tau as turn\n\n"
        "ORPHAN = 1  # ORPHAN\n"
        "USED = 2\n"
        "IN_FSTRING = 3\n\n\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else USED\n\n\n"
        "class Shape:\n"
        "    def __len__(self):\n"
        "        return 0\n\n"
        "    def area(self):\n"
        "        return 'area'\n\n"
        "    def size(self):\n"
        "        return len(self)\n\n\n"
        "def main():\n"
        "    return Shape().size(), f'{os.sep}{IN_FSTRING:d}{pi}'\n\n\n"
        "main()\n"
    )
    assert unused_definitions(tmp_path) == ["a.ORPHAN", "a.helper", "a.Shape.area"]
    assert unused_imports(tmp_path) == ["a.sys", "a.turn"]
