"""No dead API: every function, class, method and module-level constant that
``src/ktrace`` defines is loaded by some code in ``src/ktrace`` or
``perfbench``, every module of ``src/ktrace`` loads each name it imports, and
every defaulted parameter of a ``src/ktrace`` function or method is passed by
some call in ``src/ktrace`` or ``perfbench``.

A definition counts as loaded when its name is read as a variable, as an
attribute, or appears as an identifier string (the names ``perfbench/tracer.py``
hands to ``Tracer.wrap``). An attribute of numpy does not count: ``np.zeros``
keeps no ``zeros`` of ours alive. A parameter counts as passed when a call to a
function of that name (a class's name for ``__init__``) sets it by keyword or
by position, or spreads ``*``/``**`` arguments it may reach. Tests do not count:
a function or a knob only a test uses is dead code kept alive by its test.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    # the public reader of the checkpoint.npz that `ktrace train` writes
    "load_checkpoint",
    # the reference the fused BCE gradient is checked against in tests
    "masked_bce_backward",
    # the one-student call of generate's forward filter, which tests check
    # against an enumeration of hidden-state paths
    "oracle_probabilities",
    # the one-path oracles tests check coherence_report against; nothing in
    # src/ktrace calls them, and only CoherenceReport's fields and
    # coherence_report's dict keys of the same names would load them
    "volatility",
    "inconsistency",
}


NUMPY = {"np", "numpy"}


def loaded_names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in NUMPY):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def defined_names(tree: ast.Module) -> list:
    """Top-level functions and classes, and the methods of those classes,
    dunders aside, as ``name`` or ``Class.name``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, kinds):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{member.name}" for member in node.body
                if isinstance(member, kinds) and not (member.name[:2] == member.name[-2:] == "__")
            ]
    return names


def constant_names(tree: ast.Module) -> list:
    """Names bound by top-level assignments, dunders aside."""
    targets = [
        target for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    return [
        node.id for target in targets for node in ast.walk(target)
        if isinstance(node, ast.Name) and not (node.id[:2] == node.id[-2:] == "__")
    ]


def imported_names(tree: ast.Module) -> list:
    """Names bound by top-level imports; ``__future__`` switches aside."""
    return [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


@functools.cache
def parsed() -> tuple:
    """The sources of ``src/ktrace``, the syntax tree of every reader file,
    and every name those files load."""
    sources = sorted((ROOT / "src" / "ktrace").glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    return sources, trees, set().union(*map(loaded_names, trees.values()))


def test_every_definition_in_ktrace_is_loaded():
    sources, trees, loaded = parsed()
    defined = [(path.stem, name) for path in sources for name in defined_names(trees[path])]
    assert KEEP <= {name.rpartition(".")[2] for _, name in defined}, "the keep-list names a deleted definition"
    dead = [f"{module}.{name}" for module, name in defined if name.rpartition(".")[2] not in loaded | KEEP]
    assert not dead, f"defined in src/ktrace but loaded by no code in src/ktrace or perfbench: {dead}"


def test_every_constant_and_import_in_ktrace_is_loaded():
    sources, trees, loaded = parsed()
    dead = [f"{path.stem}.{name}" for path in sources for name in constant_names(trees[path])
            if name not in loaded]
    assert not dead, f"constants of src/ktrace loaded by no code in src/ktrace or perfbench: {dead}"
    # an import must serve the module that makes it, not a namesake elsewhere
    unused = [f"{path.stem}: {name}" for path in sources for name in imported_names(trees[path])
              if name not in loaded_names(trees[path])]
    assert not unused, f"imports of src/ktrace that their module never loads: {unused}"


def defaulted_parameters(tree: ast.Module) -> list:
    """``(call name, parameter, positional index or None)`` for each defaulted
    parameter of every function and method in ``tree``, nested ones included.
    A method's index skips ``self``/``cls``, as a call through an instance or
    class passes it; ``__init__`` is called by its class's name."""
    owners = {
        member: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for member in node.body
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if node in owners and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        ):
            positional = positional[1:]
        name = owners[node].name if node in owners and node.name == "__init__" else node.name
        for index, arg in enumerate(positional):
            if index >= len(positional) - len(args.defaults):
                found.append((name, arg.arg, index))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((name, arg.arg, None))
    return found


def passes(call: ast.Call, parameter: str, index) -> bool:
    """Whether ``call`` sets ``parameter`` (at ``index`` when positional)."""
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_in_ktrace_is_passed():
    sources, trees, _ = parsed()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{path.stem}.{name}({parameter})"
        for path in sources for name, parameter, index in defaulted_parameters(trees[path])
        if name not in KEEP and not any(passes(call, parameter, index) for call in calls.get(name, ()))
    ]
    assert not unset, f"defaulted parameters no call in src/ktrace or perfbench passes: {unset}"
