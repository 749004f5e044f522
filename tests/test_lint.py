"""Checks on the package's modules, built on ``ast`` alone.

No module imports a name at module level and never reads it: a stand-in
for pyflakes' F401.  A name is kept when the module reads it anywhere,
lists it in ``__all__``, or imports it on a line marked ``# noqa: F401``
(a binding that other code patches or wraps).

No module defines a private name at module level (``_x``, not a dunder)
that no module of the package reads, as a name, an attribute or an
import.  A read inside the name's own definition, such as a recursive
call, does not keep it.

In ``core``, only ``SubmodularFn.__init__`` assigns ``self.values`` and
every ``__init__`` of a ``SubmodularFn`` subclass calls
``super().__init__``, so one constructor checks every table.

In ``decompose``, the LP names ``build_intersection_system``,
``find_vertex``, ``dump_system`` and ``assert_integral`` are read only
inside ``_integer_vertex``, the one seam of the vertex step.

In ``polytope``, ``dimension`` reads none of the engine's face helpers,
directly or through a function of its module, so ``verify``'s bound
shares no code with the face chains the engine factors along; and
``in_base_polytope`` reads none of the engine's membership and face
kernels, so neither does ``verify``'s membership test.

``tests/lp_reference.py``, the rational oracle of the vertex kernel,
imports from ``polybase.lp`` only ``_PIVOT_CAP``, ``ConstraintSystem`` and
``dump_system``, so it shares none of the kernel's arithmetic helpers.
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


def _writes_self_values(node) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr == "values"
               and isinstance(t.value, ast.Name) and t.value.id == "self" for t in targets)


def _calls_super_init(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "super")


def table_writers(source: str, base: str = "SubmodularFn") -> list[str]:
    """The methods other than base's ``__init__`` that assign ``self.values``,
    and the ``__init__`` methods of base's subclasses that call no
    ``super().__init__``."""
    classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    family = {base}
    for cls in classes:  # a module defines a class after its bases
        if any(isinstance(b, ast.Name) and b.id in family for b in cls.bases):
            family.add(cls.name)
    found = []
    for cls in classes:
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            where = f"{cls.name}.{method.name}"
            nodes = list(ast.walk(method))
            if where != f"{base}.__init__" and any(map(_writes_self_values, nodes)):
                found.append(f"{where} assigns self.values")
            if (method.name == "__init__" and cls.name in family - {base}
                    and not any(map(_calls_super_init, nodes))):
                found.append(f"{where} calls no super().__init__")
    return found


def test_one_constructor_writes_every_table():
    assert table_writers((PACKAGE / "core.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_second_table_writer_and_a_skipped_super():
    source = ("class SubmodularFn:\n"
              "    def __init__(self, values): self.values = values\n"
              "class Table(SubmodularFn): pass\n"
              "class Checked(Table):\n"
              "    def __init__(self, values): super().__init__(values)\n"
              "class Own(Table):\n"
              "    def __init__(self, values): self.values: tuple = values\n"
              "class Skips(Checked):\n"
              "    def __init__(self, values): SubmodularFn.__init__(self, values)\n"
              "class Outside:\n"
              "    def __init__(self, values): self.values = values\n"
              "    def bump(self): self.values += (1,)\n")
    assert table_writers(source) == [
        "Own.__init__ assigns self.values", "Own.__init__ calls no super().__init__",
        "Skips.__init__ calls no super().__init__",
        "Outside.__init__ assigns self.values", "Outside.bump assigns self.values"]


VERTEX_SEAM = ("build_intersection_system", "find_vertex", "dump_system", "assert_integral")


def readers_outside(source: str, names, seam: str) -> list[str]:
    """``reader: name`` for each read of one of names outside the top-level
    function seam; a read at module level is read by ``<module>``."""
    found = []
    for stmt in ast.parse(source).body:
        where = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if where == seam:
            continue
        found += [f"{where}: {node.id}" for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id in names]
    return found


def test_the_vertex_step_is_read_only_at_its_seam():
    source = (PACKAGE / "decompose.py").read_text(encoding="utf-8")
    assert readers_outside(source, VERTEX_SEAM, "_integer_vertex") == []


def test_the_check_sees_a_read_outside_the_seam():
    source = ("from lp import find_vertex, dump_system\n"
              "def seam(s): return find_vertex(s) or dump_system(s)\n"
              "def other(s): return find_vertex(s)\n"
              "kernel = dump_system\n")
    assert readers_outside(source, VERTEX_SEAM, "seam") == ["other: find_vertex",
                                                            "<module>: dump_system"]


FACE_HELPERS = {"tight_sets", "_tight_chain", "_maximal_chain", "_face_chain", "_chain_positions"}


def reads_from(source: str, root: str) -> set[str]:
    """The names and attributes the top-level function ``root`` reads, with
    those of every top-level function or class of the module it reads."""
    tops = {stmt.name: stmt for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    read, todo = set(), [root]
    while todo:
        for node in ast.walk(tops[todo.pop()]):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name not in read:
                read.add(name)
                if name in tops:
                    todo.append(name)
    return read


def test_dimension_reads_no_face_helper():
    source = (PACKAGE / "polytope.py").read_text(encoding="utf-8")
    assert reads_from(source, "dimension") & FACE_HELPERS == set()


ENGINE_KERNELS = {"_in_base", "_first_violation", "_face_chain", "_maximal_chain", "_times"}


def test_membership_reads_no_engine_kernel():
    source = (PACKAGE / "polytope.py").read_text(encoding="utf-8")
    assert reads_from(source, "in_base_polytope") & ENGINE_KERNELS == set()


def test_the_check_follows_reads_through_the_module():
    source = ("def _maximal_chain(tight): return tight\n"
              "def helper(f): return _maximal_chain(f.values)\n"
              "def dimension(f): return helper(f) + len(f)\n"
              "def other(f): return tight_sets(f)\n")
    assert reads_from(source, "dimension") == {"helper", "_maximal_chain", "tight", "f",
                                               "values", "len"}
    assert reads_from(source, "dimension") & FACE_HELPERS == {"_maximal_chain"}


ORACLE_IMPORTS = {"_PIVOT_CAP", "ConstraintSystem", "dump_system"}


def names_taken_from(source: str, module: str) -> list[str]:
    """The names source imports from module, with ``*`` for an import of the
    module itself, through which any of its names can be read."""
    package, _, leaf = module.rpartition(".")
    taken = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            taken += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == package:
            taken += ["*" for alias in node.names if alias.name == leaf]
        elif isinstance(node, ast.Import):
            taken += ["*" for alias in node.names if alias.name == module]
    return taken


def test_the_lp_oracle_imports_only_the_system_and_its_dump():
    source = (PACKAGE.parent.parent / "tests" / "lp_reference.py").read_text(encoding="utf-8")
    assert set(names_taken_from(source, "polybase.lp")) <= ORACLE_IMPORTS


def test_the_check_sees_an_oracle_import_of_a_kernel_helper():
    source = ("from polybase.lp import ConstraintSystem, _adjugate\n"
              "from polybase.core import subset_sums\n"
              "from polybase import lp, core\n"
              "import polybase.lp as kernel\n"
              "def late():\n"
              "    from polybase.lp import _reduce_row\n")
    taken = names_taken_from(source, "polybase.lp")
    assert taken == ["ConstraintSystem", "_adjugate", "*", "*", "_reduce_row"]
    assert set(taken) - ORACLE_IMPORTS == {"_adjugate", "*", "_reduce_row"}
