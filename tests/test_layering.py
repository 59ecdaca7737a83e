"""Import discipline of the package, read from the source with ast.

No module imports a private name (one starting with "_") from another
package module, and the package modules import one another without a
cycle, function-level imports included.  Only modsym takes the Manin step
(segment -> generator index), so no other module reaches into P^1 for it,
and only modsym splits a path into segments (segments_between) or moves a
cusp (apply_moebius): the other modules read its Hecke walk.  Only padics
reads w^2 (an attribute eps or eps_scalar), whose digits its w^2 rule
bounds.
No module uses assert, which python -O strips: invariants raise instead.
No function, in the package, its tests or bench/, stores a local name
(other than _) that it never reads, and no file of the package, of its
tests or of bench/ imports a name it never reads (__future__ imports
aside).  In
padics and tate, only the two ``_coerce`` methods ask whether a value is a
PadicScalar or a QuadExtScalar: every other function serves Q_p and Q_p^2
through one body.
The package has no runtime dependencies: every import in it, at module or
function level, names a package module or a standard-library one, and
importing the package's modules loads neither scipy nor numpy, which only
the tests' oracles use.
Every function, class, method and property of the package has a caller in
the package or in bench/, and every dataclass field and self.x store of the
package is read there, unless RESERVED names the ROADMAP item that will
call or read it; code only the tests call lives in the tests' oracles.
Every value a caller may leave at its default, parameter or dataclass
field, is set by some call there and left at its default by another, so a
default is an option two callers need, not one only the tests set.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PKG = TESTS.parent / "src" / "starkheegner"
BENCH = TESTS.parent / "bench"
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")


def _package_imports(mod):
    """(imported module, imported names) for each package import in mod."""
    tree = ast.parse((PKG / ("%s.py" % mod)).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module, [a.name for a in node.names]
            elif node.level == 1:
                for a in node.names:
                    yield a.name, []
            elif node.module and node.module.startswith("starkheegner."):
                yield node.module.split(".")[1], [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("starkheegner."):
                    yield a.name.split(".")[1], []


def _graph():
    """{module: {imported module: [imported names]}}."""
    graph = {m: {} for m in MODULES}
    for m in MODULES:
        for target, names in _package_imports(m):
            graph[m].setdefault(target, []).extend(names)
    return graph


GRAPH = _graph()


def test_no_private_names_across_modules():
    bad = ["%s imports %s.%s" % (m, target, name)
           for m, targets in GRAPH.items()
           for target, names in targets.items() if target != m
           for name in names if name.startswith("_")]
    assert not bad, bad


def test_no_import_cycles():
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for target in GRAPH.get(m, {}):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(m)
        return None

    for m in MODULES:
        cycle = visit(m)
        assert cycle is None, " -> ".join(cycle)


MANIN_SPLIT = {"segments_between", "apply_moebius"}


def _manin_step_calls(mod):
    """Line numbers of calls to .index_of_matrix(...) or .p1.lift(...), and
    of calls to segments_between or apply_moebius, by name or attribute."""
    tree = ast.parse((PKG / ("%s.py" % mod)).read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in MANIN_SPLIT:
            yield node.lineno
        elif isinstance(f, ast.Attribute) and (
                f.attr in MANIN_SPLIT or f.attr == "index_of_matrix" or (
                    f.attr == "lift" and isinstance(f.value, ast.Attribute)
                    and f.value.attr == "p1")):
            yield node.lineno


def test_manin_step_only_in_modsym():
    bad = ["%s.py:%d" % (m, line) for m in MODULES if m != "modsym"
           for line in _manin_step_calls(m)]
    assert not bad, bad


def _w_square_loads(mod):
    """Line numbers of loads of an attribute named eps or eps_scalar."""
    tree = ast.parse((PKG / ("%s.py" % mod)).read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in ("eps", "eps_scalar")]


def test_w_square_only_in_padics():
    bad = ["%s.py:%d" % (m, line) for m in MODULES if m != "padics"
           for line in _w_square_loads(m)]
    assert not bad, bad


def test_no_assert_in_src():
    bad = ["%s.py:%d" % (m, node.lineno) for m in MODULES
           for node in ast.walk(ast.parse((PKG / ("%s.py" % m)).read_text()))
           if isinstance(node, ast.Assert)]
    assert not bad, bad


def _unused_locals(path):
    """(line, function, name) for each name a function of the file stores
    and never loads anywhere in its body, nested functions included."""
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for n in names:
            if isinstance(n.ctx, ast.Store) and n.id != "_" and n.id not in loaded:
                yield n.lineno, func.name, n.id


def test_no_unused_locals():
    files = ([PKG / ("%s.py" % m) for m in MODULES] + sorted(TESTS.glob("*.py"))
             + sorted(BENCH.glob("*.py")))
    bad = sorted({"%s/%s:%d %s: %s" % (path.parent.name, path.name, line, f, name)
                  for path in files for line, f, name in _unused_locals(path)})
    assert not bad, bad


def _unused_imports(path):
    """(line, name) for each name an import of the file binds, at module or
    function level, that the file never loads; __future__ imports are
    directives, not names."""
    tree = ast.parse(path.read_text())
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            if name not in loaded:
                yield node.lineno, name


def test_no_unused_imports():
    files = ([PKG / ("%s.py" % m) for m in MODULES] + sorted(TESTS.glob("*.py"))
             + sorted(BENCH.glob("*.py")))
    bad = ["%s/%s:%d %s" % (path.parent.name, path.name, line, name)
           for path in files for line, name in _unused_imports(path)]
    assert not bad, bad


SCALAR_TYPES = {"PadicScalar", "QuadExtScalar"}


def _scalar_dispatch(mod):
    """(line, function) for each isinstance check against a scalar type
    outside a method named _coerce."""
    tree = ast.parse((PKG / ("%s.py" % mod)).read_text())

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and func != "_coerce"):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id in SCALAR_TYPES for n in names):
                yield node.lineno, func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_scalar_dispatch_only_in_coerce():
    bad = ["%s.py:%d in %s" % (m, line, func) for m in ("padics", "tate")
           for line, func in _scalar_dispatch(m)]
    assert not bad, bad


def _foreign_imports(mod):
    """(line, module) for each import in mod, at any level, of a module that
    is neither in the package nor in the standard library."""
    tree = ast.parse((PKG / ("%s.py" % mod)).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "starkheegner" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def test_only_package_and_stdlib_imports():
    bad = ["%s.py:%d imports %s" % (m, line, name) for m in MODULES
           for line, name in _foreign_imports(m)]
    assert not bad, bad


def test_import_loads_no_numerics_stack():
    code = ("import sys\n"
            "import %s\n"
            "print(sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
            % ", ".join("starkheegner." + m for m in MODULES))
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", out.stdout


def test_console_scripts_resolve():
    # every [project.scripts] entry "module:attr" names an importable
    # module with that attribute, so an installed command can start
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    meta = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), (name, target)
            obj = getattr(obj, part)


# Names nothing calls or reads yet, each with the ROADMAP item that will.  A
# name leaves the dict when it gains a caller or reader, so the dict only
# shrinks.
RESERVED = {
    "lift_pair": "item 1: the Darmon-point route lifts the symbol of each sign",
    "Distribution.moment": "item 1: each moment m_j with its precision n - j",
    "reconstruct_scalar": "item 1: the ratios are read back as rationals",
    "QuadExtScalar.frobenius": "item 1: the omega-part is the part Frobenius negates",
    "exp_p": "item 2: P_chi recovered from log_E(P_chi)",
    "pushforward_class": "item 4: norm relations between conductors f | c",
    "HeegnerSystem.to_json_dict": "item 7: the stage record and the JSON report",
    "EllipticCurveData.label": "item 7: the sweep names each row's curve",
    "PrecisionError.achievable": "item 8: the stage record's digits achieved",
    "LiftCertificate.iterations": "item 8: the stage record's iterations",
    "LiftCertificate.converged": "item 8: the stage record's residuals",
    "LiftCertificate.matrices_cached": "item 8: the stage record's cache sizes",
}


def _definitions_and_loads(path):
    """(defs, loads) of a file.  defs holds (node, class name or None) for
    each function, class, method and property at module or class level,
    dunder methods left out; loads holds (name, enclosing definitions,
    receiver, call) for each name the file loads, bare or as an attribute.
    The receiver is None for a bare name, the name of the enclosing class
    for an attribute of self, and "" for an attribute of any other value;
    call is the ast.Call whose callee the load is, else None."""
    defs, loads = [], []

    def visit(node, owners, cls, call):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if (cls or not owners) and not (name.startswith("__") and name.endswith("__")):
                defs.append((node, cls))
            owners = owners + (node,)
            cls = name if isinstance(node, ast.ClassDef) else None
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node.id, owners, None, call))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append((node.attr, owners, _receiver(node, owners), call))
        for child in ast.iter_child_nodes(node):
            callee = isinstance(node, ast.Call) and child is node.func
            visit(child, owners, cls, node if callee else None)

    visit(ast.parse(path.read_text()), (), None, None)
    return defs, loads


def _receiver(attr, owners):
    """The name of the innermost class enclosing a load of self.x, else ""."""
    if isinstance(attr.value, ast.Name) and attr.value.id == "self":
        for owner in reversed(owners):
            if isinstance(owner, ast.ClassDef):
                return owner.name
    return ""


def _related_classes(paths):
    """{class name: the names of the class, of its bases and of its
    subclasses} over the classes defined in paths, bases matched by name."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)}

    def ancestors(name):
        return set().union(*({b} | ancestors(b) for b in bases.get(name, ())))

    up = {name: ancestors(name) for name in bases}
    return {name: {name} | up[name] | {sub for sub in bases if name in up[sub]}
            for name in bases}


def _reaches(receiver, cls, related):
    """Whether a load with this receiver can name a member of class cls: a
    bare name reaches none, an attribute of self only those of its own
    class and of that class's bases and subclasses, any other attribute
    those of every class."""
    return receiver is not None and (receiver == "" or cls in related[receiver])


SOURCES = [PKG / ("%s.py" % m) for m in MODULES] + sorted(BENCH.glob("*.py"))


def _in_reserved(owners):
    """Whether one of the enclosing definitions is named in RESERVED, a
    method as class.method."""
    return any((node.name if not isinstance(outer, ast.ClassDef)
                else "%s.%s" % (outer.name, node.name)) in RESERVED
               for outer, node in zip((None,) + owners, owners))


def _live_loads():
    """{name: [(enclosing definitions, receiver, call)]} over the loads of
    the package and of bench/*.py, leaving out those inside a definition
    RESERVED names: code no one calls yet calls nothing."""
    loads = {}
    for path in SOURCES:
        for name, owners, receiver, call in _definitions_and_loads(path)[1]:
            if not _in_reserved(owners):
                loads.setdefault(name, []).append((owners, receiver, call))
    return loads


def _callers(node, cls, loads, related):
    """The loads that can name the definition node of class cls (None at
    module level) from outside its own body.  Matching is by name, as in
    _unused_locals, but a method is called only through an attribute, and
    through self.name only from its own class or a base or subclass of
    it."""
    return [(owners, receiver, call)
            for owners, receiver, call in loads.get(node.name, ())
            if node not in owners
            and (cls is None or _reaches(receiver, cls, related))]


def _uncalled():
    """{qualified name: "module.py:line"} for each definition of the package
    that nothing loads (see _callers and _live_loads)."""
    related = _related_classes(SOURCES)
    loads = _live_loads()
    return {node.name if cls is None else "%s.%s" % (cls, node.name):
            "%s:%d" % (path.name, node.lineno)
            for path in SOURCES if path.parent == PKG
            for node, cls in _definitions_and_loads(path)[0]
            if not _callers(node, cls, loads, related)}


def _is_dataclass(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(f, ast.Name) and f.id == "dataclass"


def _unread():
    """{qualified name: "module.py:line"} for each field of a @dataclass and
    each self.x store of the package whose attribute nothing loads, in the
    package or in bench/*.py.  Matching is by name, as in _uncalled: a load
    of self.x reads only the x of its own class and of that class's bases
    and subclasses, and a load inside a RESERVED definition reads nothing
    (see _live_loads)."""
    stores = {}
    for m in MODULES:
        path = PKG / ("%s.py" % m)
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = []
            if any(map(_is_dataclass, cls.decorator_list)):
                fields += [(node.target.id, node.lineno) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
            fields += [(node.attr, node.lineno) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "self"]
            for name, line in fields:
                stores.setdefault((cls.name, name), "%s:%d" % (path.name, line))
    related = _related_classes(SOURCES)
    loads = _live_loads()
    return {"%s.%s" % (cls, name): where for (cls, name), where in stores.items()
            if not any(_reaches(receiver, cls, related)
                       for _, receiver, _ in loads.get(name, ()))}


def test_every_src_name_has_a_caller():
    uncalled = _uncalled()
    bad = sorted("%s %s" % (where, qual) for qual, where in uncalled.items()
                 if qual not in RESERVED)
    assert not bad, "no caller in src/ or bench/: %s" % bad
    unused = {**uncalled, **_unread()}
    stale = sorted(qual for qual in RESERVED if qual not in unused)
    assert not stale, "reserved, but used or no longer defined: %s" % stale


def test_every_stored_field_is_read():
    bad = sorted("%s %s" % (where, qual) for qual, where in _unread().items()
                 if qual not in RESERVED)
    assert not bad, "stored, but read nowhere in src/ or bench/: %s" % bad


def _defaulted(func, skip):
    """(parameter, position) for each parameter of func with a default,
    keyword-only ones included; position counts the call's positional
    arguments, skip of func's leading parameters (self or cls) left out,
    and is None for a keyword-only parameter."""
    args = func.args
    positional = args.posonlyargs + args.args
    start = len(positional) - len(args.defaults)
    for k, a in enumerate(positional[start:], start):
        yield a.arg, k - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield a.arg, None


def _in_init(value):
    """Whether a dataclass field with this default is an __init__
    parameter: it is unless the default is field(..., init=False)."""
    return not (isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords))


def _options(path):
    """(definition, class name or None, qualified value, parameter,
    position) for each value a caller may leave at its default in path: a
    defaulted parameter of a module-level function or a method (the
    definition itself), and a defaulted field of a dataclass or parameter
    of a class's __init__ (the class, called by its name)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            for name, pos in _defaulted(node, 0):
                yield node, None, "%s.%s" % (node.name, name), name, pos
        if not isinstance(node, ast.ClassDef):
            continue
        if any(map(_is_dataclass, node.decorator_list)):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name) and _in_init(f.value)]
            for pos, f in enumerate(fields):
                if f.value is not None:
                    name = f.target.id
                    yield node, None, "%s.%s" % (node.name, name), name, pos
        for func in node.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            for name, pos in _defaulted(func, 1):
                if func.name == "__init__":
                    yield node, None, "%s.%s" % (node.name, name), name, pos
                elif not func.name.startswith("__"):
                    yield (func, node.name, "%s.%s.%s" % (node.name, func.name, name),
                           name, pos)


def _sets(call, name, pos):
    """Whether the call passes the parameter; *args or **kw pass them all."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or (pos is not None and pos < len(call.args)))


def test_every_option_takes_two_values():
    related = _related_classes(SOURCES)
    loads = _live_loads()
    bad = []
    for m in MODULES:
        path = PKG / ("%s.py" % m)
        for node, cls, qual, name, pos in _options(path):
            passes = {_sets(call, name, pos)
                      for _, _, call in _callers(node, cls, loads, related)
                      if call is not None}
            if passes != {True, False} and qual not in RESERVED:
                bad.append("%s:%d %s" % (path.name, node.lineno, qual))
    assert not bad, "set by every call in src/ and bench/, or by none: %s" % sorted(bad)
