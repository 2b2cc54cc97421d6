"""No source code that only tests call: every definition in src/ballfourier has a caller in src/.

A definition is a module-level function, class or constant, or a method of
a module-level class.  It counts as used when its name appears as a code
token (not in a comment or string) in some module other than __init__.py,
outside the lines of its own definition.  Dunder names are exempt.
"""

import ast
import io
import tokenize
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


def _name_tokens(text):
    """(name, line) of every NAME token: identifiers in code, never in comments or strings."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return [(tok.string, tok.start[0]) for tok in tokens if tok.type == tokenize.NAME]


def unused_definitions(src=SRC):
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    names = {mod: _name_tokens(text) for mod, text in modules.items() if mod != "__init__.py"}
    unused = []
    for mod, text in modules.items():
        for qualname, first, last in _definitions(ast.parse(text)):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            used = any(
                tok == name and not (other == mod and first <= line <= last)
                for other, toks in names.items()
                for tok, line in toks
            )
            if not used:
                unused.append(f"{mod[:-3]}.{qualname}")
    return unused


def test_every_source_definition_has_a_caller_in_source():
    assert unused_definitions() == []


def test_scan_flags_a_definition_only_its_own_body_names(tmp_path):
    """A recursive helper, a method and a constant named only in __init__.py, comments or strings are flagged."""
    (tmp_path / "__init__.py").write_text("from .a import ORPHAN, helper\n")
    (tmp_path / "a.py").write_text(
        '"""helper and ORPHAN are named in this docstring."""\n'
        "ORPHAN = 1  # ORPHAN\n"
        "USED = 2\n\n\n"
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
        "    return Shape().size()\n\n\n"
        "main()\n"
    )
    assert unused_definitions(tmp_path) == ["a.ORPHAN", "a.helper", "a.Shape.area"]
