"""No module of the package imports a name at module level and never reads it.

A stand-in for pyflakes' F401 built on ``ast`` alone.  A name is kept when
the module reads it anywhere, lists it in ``__all__``, or imports it on a
line marked ``# noqa: F401`` (a binding that other code patches or wraps).
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
