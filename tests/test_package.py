"""Package guards: numpy is the only third-party import, and every public
module-level name has a caller in the library or the benchmark."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "astra_nav"
ALLOWED_IMPORTS = {"numpy", "astra_nav"}
# Public names that nothing in src/ or bench/ calls yet.
UNCALLED = {
    "sim.save_dataset",  # writes the format `plan train --data` reads; waits for a CLI verb
}


def parsed(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def test_imports_are_stdlib_numpy_or_the_package():
    foreign = []
    for path, tree in parsed(sorted(PACKAGE.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED_IMPORTS:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


def public_definitions(tree):
    """(name, first line, last line) of each public module-level def, class
    or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def references(tree):
    """(name, line) of every name read, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller():
    trees = parsed(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    uncalled = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for name, first, last in public_definitions(tree):
            called = any(
                ref == name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ref, line in found
            )
            if not called:
                uncalled.add(f"{path.stem}.{name}")
    assert uncalled == UNCALLED
