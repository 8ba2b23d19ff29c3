"""The library's public surface has callers in the package or the benchmark.

Three checks over the sources, by ``ast``, with no import of the modules:

- ``statelab/__init__.py`` binds no public name (``__version__`` is not
  one), so each name has one import path, its module;
- every public module-level name of ``src/`` (a function, class or
  assigned constant whose name has no leading underscore) is used outside
  its own definition in ``src/`` or ``perfbench/``;
- every defaulted parameter of a public function or method of ``src/`` is
  passed by some call there.

Surface that only the tests reach is dead: a test of it verifies nothing the
lab runs.  Calls are matched by the called name (``f(...)``, ``m.f(...)``,
``functools.partial(f, ...)``), so two functions of one name share their
callers; a check that errs that way errs toward passing.  The allowlist
names each exception with its reason.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statelab"
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
CALLERS = SOURCES + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                     if not p.name.startswith("test_")]

# "module.function.parameter" -> why the default may stay unpassed
DEFAULT_ONLY = {
    "diffusion.solid_com_diffusion.n_steps":
        "perfbench/tracing.py's solid_com_normals counter reads it by name",
}


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound(path: Path, imports: bool = True) -> list[str]:
    """The names that the top level of a module binds; with imports=False,
    only those it defines: functions, classes and assigned constants."""
    names = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
    return names


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside a type annotation, which is not a use."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += [a.annotation for a in (*node.args.posonlyargs, *node.args.args,
                                             *node.args.kwonlyargs, node.args.vararg,
                                             node.args.kwarg) if a and a.annotation]
            roots += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _used(names: set[str]) -> set[str]:
    """The names that some node of CALLERS refers to, outside the name's own
    top-level definition and outside annotations."""
    used = set()
    for path in CALLERS:
        tree = _tree(path)
        skip = _annotation_nodes(tree)
        own = {node.name: {id(n) for n in ast.walk(node)} for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names}
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue   # an assignment binds the name, it does not use it
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in names and id(node) not in skip and id(node) not in own.get(name, ()):
                used.add(name)
    return used


def _public_functions():
    """(qualified name, parameter names after self/cls, defaulted names) of
    every public module-level function and public method of a public class."""
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                owners = [(path.stem, node, False)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                owners = [(f"{path.stem}.{node.name}", m,
                           not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in m.decorator_list))
                          for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for prefix, fn, bound in owners:
                if fn.name.startswith("_"):
                    continue
                positional = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)][bound:]
                defaulted = positional[len(positional) - len(fn.args.defaults):]
                defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                              if d is not None]
                if defaulted:
                    yield f"{prefix}.{fn.name}", positional, defaulted


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passed() -> dict[str, set]:
    """Called name -> the positions (ints) and keywords (strs) some call
    passes; "*" when a call splats its arguments."""
    passed: dict[str, set] = {}
    for path in CALLERS:
        for call in ast.walk(_tree(path)):
            if not isinstance(call, ast.Call):
                continue
            name, args = _called_name(call.func), call.args
            if name == "partial" and args:
                name, args = _called_name(args[0]), args[1:]
            if name is None:
                continue
            got = passed.setdefault(name, set())
            got.update(range(len(args)))
            got.update(k.arg or "*" for k in call.keywords)
            if any(isinstance(a, ast.Starred) for a in args):
                got.add("*")
    return passed


def test_init_binds_no_public_name():
    public = [name for name in _bound(PACKAGE / "__init__.py") if not name.startswith("_")]
    assert not public, f"statelab/__init__.py binds {public}; import them from their modules"


def test_every_export_has_a_caller():
    # a module's exports: the public names it defines
    exports = [(path.stem, name) for path in SOURCES
               for name in _bound(path, imports=False) if not name.startswith("_")]
    used = _used({name for _, name in exports})
    unused = [f"{module}.{name}" for module, name in exports if name not in used]
    assert not unused, f"public but unused in src/ and perfbench/: {unused}"


def test_every_default_is_passed_somewhere():
    passed = _passed()
    unpassed = []
    for qualname, positional, defaulted in _public_functions():
        got = passed.get(qualname.rsplit(".", 1)[1], set())
        for param in defaulted:
            key = f"{qualname}.{param}"
            index = positional.index(param) if param in positional else None
            if not ({param, index, "*"} & got or key in DEFAULT_ONLY):
                unpassed.append(key)
    assert not unpassed, f"defaults no call in src/ or perfbench/ overrides: {unpassed}"


def test_allowlist_names_live_defaults():
    # an exception whose parameter is gone must leave the list
    live = {f"{q}.{p}" for q, _, defaulted in _public_functions() for p in defaulted}
    assert set(DEFAULT_ONLY) <= live
