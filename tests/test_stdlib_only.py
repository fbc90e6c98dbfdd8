import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toric_qh"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_runtime_imports_only_stdlib(path):
    # the engine runs on a bare Python; third-party packages are test-only
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    outside = {name for name in names
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


ROOT = PACKAGE.parent.parent

# Top-level definitions of src/toric_qh kept without a caller in src/,
# scripts/ or perfbench/
UNCALLED = {
    # perfbench/tracing.py wraps these by name, with getattr and no
    # default; they can go when its ENTRY_POINTS drops them
    "solve_rational", "det", "kernel_lattice_basis", "saturate_t",
    # writes the polytope JSON that load_polytope reads; exported from
    # toric_qh for callers that build inputs
    "polytope_to_json",
}


def test_src_defines_nothing_only_tests_read():
    # a top-level function or class, or a non-dunder method or property
    # of a top-level class, that only tests read belongs in tests/; a
    # reference is a name or an attribute in code outside the definition
    # itself, so an import or a string does not count, and a local
    # variable of the same name does
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = {node.name: node for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert UNCALLED <= set(defs), sorted(UNCALLED - set(defs))
    members = {f"{cls.name}.{node.name}": node for cls in defs.values()
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__")
                        and node.name.endswith("__"))}
    own = {id(node) for node in (*defs.values(), *members.values())}
    for path in sorted((ROOT / "scripts").glob("*.py")) + \
            sorted((ROOT / "perfbench").glob("*.py")):
        trees[path] = ast.parse(path.read_text(), filename=str(path))
    used = set()
    stack = [(tree, None) for tree in trees.values()]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, ast.Name) and node.id != inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != inside:
            used.add(node.attr)
        stack.extend((child, child.name if id(child) in own else inside)
                     for child in ast.iter_child_nodes(node))
    unread = sorted(set(defs) - used - UNCALLED)
    unread += sorted(name for name in members
                     if name.partition(".")[2] not in used)
    assert not unread, f"only tests read {unread}"


# dataclasses and the modules it imports; typing, which only annotations
# would need
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_import_loads_no_heavy_stdlib_modules():
    # each CLI call is a new process, so what the import pulls in is paid
    # per call; -S keeps site from loading any of these first
    code = ("import sys; before = set(sys.modules); import toric_qh; "
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert "toric_qh.cli" in loaded
    assert not set(HEAVY) & set(loaded), sorted(set(HEAVY) & set(loaded))
