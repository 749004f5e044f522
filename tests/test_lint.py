"""Two checks on the package's modules, built on ``ast`` alone.

No module imports a name at module level and never reads it: a stand-in
for pyflakes' F401.  A name is kept when the module reads it anywhere,
lists it in ``__all__``, or imports it on a line marked ``# noqa: F401``
(a binding that other code patches or wraps).

No module defines a private name at module level (``_x``, not a dunder)
that no module of the package reads, as a name, an attribute or an
import.  A read inside the name's own definition, such as a recursive
call, does not keep it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polybase"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_level_import_goes_unread(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_import_and_honours_noqa_and_all():
    source = ("from operator import itemgetter, sub\n"
              "from bisect import bisect_left  # noqa: F401\n"
              "import os\n"
              "__all__ = ['os']\n"
              "x = sub(2, 1)\n")
    assert unused_imports(source) == ["line 1: itemgetter"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``file: name`` for each unread module-level private name of ``sources``."""
    defined, reads = [], []
    for file, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append(names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(file, name, names) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
    return [f"{file}: {name}" for file, name, own in defined
            if not any(name in names for names in reads if names is not own)]


def test_no_module_level_private_name_goes_unread():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name_across_modules():
    sources = {"a.py": ("def _imported(): pass\n"
                        "def _unread(): pass\n"
                        "def _recursive(n): return _recursive(n - 1)\n"
                        "_CONSTANT = 1\n"
                        "_called = 2\n"
                        "__dunder__ = 3\n"
                        "x: int = _called\n"
                        "_LATE: int = 4\n"),
               "b.py": "from a import _imported\nimport a\nprint(a._CONSTANT)\n"}
    assert unread_private_names(sources) == ["a.py: _unread", "a.py: _recursive", "a.py: _LATE"]
