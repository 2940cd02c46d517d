"""Every name a jacstab module imports is used in that module, and every
module-level name, private or public, is used somewhere in the package.

No linter runs on this repository, so these AST scans keep unused imports,
orphaned helpers and test-only API from creeping back.
``__init__.py`` is skipped by the import scan: its imports are the public
re-exports.  A last test imports the library in a fresh interpreter, where
neither the CLI's click nor the suites' process pool may load.  A layer
test reads which jacstab modules each module imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jacstab"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def definitions(tree):
    """(name, statement) for each module-level function, class and
    constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def private_definitions(tree):
    """Module-level private functions, classes and constants."""
    return {name for name, _ in definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def references(tree):
    """Names read anywhere in the module, as a bare name, an attribute or
    an imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_every_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    dead = {name: sorted(private_definitions(tree) - used)
            for name, tree in trees.items()}
    assert {name: names for name, names in dead.items() if names} == {}


# Public names that no statement of the package uses, each with the reason
# it stays.
UNUSED_PUBLIC = {
    "graph_to_json": "a failing suite's reproducer will write its graph",
    "phi_to_dict": "a failing suite's reproducer will write its phi",
    "verify_support_lemma": "the support lemma for one phi; the suite runs "
                            "the same search through _support_lemma_count, "
                            "which also returns the count it checks",
}


def test_every_public_name_is_used_in_the_package():
    # Tests are not users: a name only they read is test-only API.  A
    # re-export in __init__.py is not a use, nor is the name's own
    # definition; a decorator, which registers what it decorates (the CLI
    # commands), is.
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    uses = [(stmt, references(stmt)) for tree in trees for stmt in tree.body]
    unused = {public for tree in trees
              for public, node in definitions(tree)
              if not public.startswith("_")
              and not getattr(node, "decorator_list", ())
              and not any(public in used for stmt, used in uses
                          if stmt is not node)}
    assert sorted(unused) == sorted(UNUSED_PUBLIC)


def jacstab_imports(path):
    """The jacstab modules ``path`` imports, at module level or inside a
    function, by their short names; a name taken from the package itself
    (``from . import x``) counts as module ``x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (["jacstab"] * (node.level == 1)
                     + (node.module or "").split("."))
            parts = [p for p in parts if p]
            if parts == ["jacstab"]:
                found.update(a.name for a in node.names)
            elif parts[0] == "jacstab":
                found.add(parts[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("jacstab."))
    return found


# The bottom layers, lowest first, each with the modules it may import.
LAYERS = {
    "errors": set(),
    "graph": {"errors"},
    "stability": {"errors", "graph"},
}


def test_modules_import_only_below_them():
    table = {p.stem: jacstab_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert set(LAYERS) <= set(table)
    assert {name: sorted(table[name] - allowed)
            for name, allowed in LAYERS.items()
            if table[name] - allowed} == {}
    # a vine certificate is a formula in e, so extension classification
    # needs no chamber search
    assert "atlas" not in table["abel_jacobi"]


def test_library_imports_without_click_or_multiprocessing():
    # click is the CLI's alone, and run_suite imports its process pool only
    # for jobs > 1, so an interpreter without click runs the library
    code = ("import sys, jacstab, jacstab.corpus, jacstab.verify; "
            "print(sorted({'click', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
