"""Package guards: numpy is the only third-party import, every import is
read by its module, and every public module-level name and every public
method of a public class has a caller in the library or the benchmark."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "astra_nav"
ALLOWED_IMPORTS = {"numpy", "astra_nav"}
# Public names that nothing in src/ or bench/ calls yet, each with why it stays.
UNCALLED = {
    "sim.oracle_plan": "bench/workloads.py traces it by name, and tests plan one request "
    "with it as the reference for `oracle_plans`",
    "topomap.Pose6.angle_to": "the per-node angle that tests pin "
    "`localization.sample_reference_nodes`'s batched ranking to",
    "topomap.TopoMap.merge_covisible": "the paper's landmark merge at map building; "
    "no verb builds maps yet",
    "topomap.TopoMap.add_edges": "the validated edge-by-edge API that tests build maps with, and "
    "the reference `from_lattice` is pinned to; which mutators stay is ROADMAP item 18's call",
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


# Imported names that their module never reads, each with why it stays.
UNREAD_IMPORTS = {
    **{f"__init__.{name}": "the package re-exports its modules and base error"
       for name in ("esdf", "geom", "localization", "odometry", "planner", "rewards", "sim",
                    "topomap", "AstraError")},
    "sim.fuse_increment": "bench/workloads.py traces `sim.fuse_increment`; the loop fuses "
    "with `fuse_sources`",
    "sim.collision_check": "bench/workloads.py traces `sim.collision_check` until the bench "
    "refresh (ROADMAP item 6); the loop checks plans with `plans_collide`",
}


def test_every_import_is_read():
    unread = set()
    for path, tree in parsed(sorted(PACKAGE.glob("*.py"))).items():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        unread |= {f"{path.stem}.{name}" for name in imported if name not in read}
    assert unread == set(UNREAD_IMPORTS)


def public_definitions(tree):
    """(qualified name, name, first line, last line) of each public
    module-level def, class or assignment, and of each public method of a
    public class, qualified by its class."""
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
                yield name, name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method.name, method.lineno, method.end_lineno


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(function):
    """The parameters of a function and the names its own body binds, not
    counting the bodies of the functions and classes it defines."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    body = function.body if isinstance(function.body, list) else [function.body]
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def references(tree):
    """(name, line) of every name read, attribute and imported name; a bare
    name read where a parameter or local of an enclosing function shadows it
    refers to that local, so it is not a reference."""
    def visit(node, shadowed):
        if isinstance(node, FUNCTIONS):
            # decorators, defaults and annotations are read where the function is defined
            outer = [*getattr(node, "decorator_list", []), node.args, getattr(node, "returns", None)]
            for child in filter(None, outer):
                yield from visit(child, shadowed)
            inner = shadowed | local_names(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                yield from visit(child, inner)
            return
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if node.id not in shadowed:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, shadowed)

    yield from visit(tree, frozenset())


def test_every_public_name_has_a_caller():
    trees = parsed(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    refs = {path: list(references(tree)) for path, tree in trees.items()}
    uncalled = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for qualified, name, first, last in public_definitions(tree):
            called = any(
                ref == name and not (where == path and first <= line <= last)
                for where, found in refs.items()
                for ref, line in found
            )
            if not called:
                uncalled.add(f"{path.stem}.{qualified}")
    assert uncalled == set(UNCALLED)


# Defaulted parameters that no call in src/ or bench/ passes, each with why it stays.
UNPASSED_DEFAULTS = {
    "cli.main.argv": "the console script runs main() on sys.argv; tests pass argument lists",
    "sim.build_planning_dataset.n_actions": "16-action windows everywhere, `sim dataset` too; "
    "tests and the CLI fixtures build shorter ones",
    "sim.run_episode.start": "`sim run` draws the start from the seed and eval_suite sets its "
    "episodes up itself; tests pass starts",
    **{f"topomap.Pose6.{name}": "map files give both parts of a pose and a lattice's nodes and "
       "links skip `Pose6.__init__`; tests build poses at the origin or with no rotation"
       for name in ("position", "quaternion")},
}
# Calls that forward their trailing arguments to a function they take: the
# index of that function among their positional arguments.
FORWARDERS = {"_call": 2}  # bench/workloads.py: _call(round_, what, fn, *args, **kwargs)


def defaulted_parameters(tree):
    """(called name, parameter, positional index or None) of every defaulted
    parameter of a module-level function or a method, private ones included;
    a method's index counts from the first argument after self or cls, and
    __init__ is called by its class name."""
    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                skip = 1 if owner is not None and not static else 0
                name = owner.name if node.name == "__init__" else node.name
                positional = node.args.posonlyargs + node.args.args
                first = len(positional) - len(node.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield name, arg.arg, i - skip
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None

    yield from visit(tree.body, None)


def calls(tree):
    """(called name, positional argument count or None under *args, keyword
    names or None under **kwargs) of every call, with import aliases resolved
    and forwarded calls unwrapped."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }

    def name_of(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id, expr.id)
        return expr.attr if isinstance(expr, ast.Attribute) else None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = name_of(node.func), node.args
        if name in FORWARDERS and len(args) > FORWARDERS[name]:
            name, args = name_of(args[FORWARDERS[name]]), args[FORWARDERS[name] + 1 :]
        starred = any(isinstance(a, ast.Starred) for a in args)
        keywords = {k.arg for k in node.keywords}
        yield name, None if starred else len(args), None if None in keywords else keywords


def test_every_default_is_passed():
    trees = parsed(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    found = [call for tree in trees.values() for call in calls(tree)]
    unpassed = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, param, index in defaulted_parameters(tree):
            passed = any(
                called == name
                and ((index is not None and (count is None or count > index))
                     or keywords is None or param in keywords)
                for called, count, keywords in found
            )
            if not passed:
                unpassed.add(f"{path.stem}.{name}.{param}")
    assert unpassed == set(UNPASSED_DEFAULTS)
