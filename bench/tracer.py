"""In-memory span tracer for the benchmark's traced runs.

`install` wraps every public function of a package's modules and every public
method and constructor of its classes, from outside the package: the
package's own source is not touched.  A function that another module imported
by value (``from .linalg import rref``) is wrapped under that module's name
too, since the importing module looks the name up in its own namespace; the
span is named after the module that defines the function, so ``modsym.rref``
counts as ``linalg.rref``.

Each call records one span (name, parent, start, end) in parallel arrays and
bumps the name's counter.  Nothing is written until `dump` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from array import array
from contextlib import contextmanager


SPAN_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def load_spans(path: str):
    """Read a `Tracer.dump` file back: (names, {column: array})."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        cols = {}
        for name, code in SPAN_COLUMNS:
            cols[name] = array(code)
            cols[name].fromfile(fh, head["spans"])
    return head["names"], cols


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = array("q")       # per name id
        self._active = array("i")     # per name id: open spans of that name
        self.name = array("i")        # per span
        self.parent = array("i")
        self.nested = array("b")      # 1 if an ancestor has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self._active.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.nested.append(1 if self._active[nid] else 0)
        self._active[nid] += 1
        self.calls[nid] += 1
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        out = array("d", (e - s for s, e in zip(self.start, self.end)))
        dur = array("d", out)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds."""
        own = self.self_times()
        incl = [0.0] * len(self.names)
        slf = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            slf[nid] += own[i]
            if not self.nested[i]:
                incl[nid] += self.end[i] - self.start[i]
        return {n: {"calls": self.calls[k], "incl_s": incl[k], "self_s": slf[k]}
                for k, n in enumerate(self.names)}

    def dump(self, path: str):
        """Write every span: a JSON header line, then the columns of
        `SPAN_COLUMNS` one after the other in machine byte order."""
        cols = [getattr(self, c) for c, _ in SPAN_COLUMNS]
        head = {"names": self.names, "spans": len(self.start),
                "columns": ["%s:%s" % c for c in SPAN_COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for col in cols:
                col.tofile(fh)

    # ------------------------------------------------------------ patching

    def install(self, package: str):
        """Wrap the public functions and methods of every module of package."""
        pkg = importlib.import_module(package)
        modules = [importlib.import_module("%s.%s" % (package, info.name))
                   for info in pkgutil.iter_modules(pkg.__path__)]
        prefix = package + "."
        wrappers: dict[int, object] = {}
        classes_done: set = set()

        def layer(obj):
            return obj.__module__[len(prefix):]

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(val, "__module__", None) or ""
                if not owner.startswith(prefix):
                    continue
                if isinstance(val, type):
                    if id(val) not in classes_done:
                        classes_done.add(id(val))
                        self._install_class(val, layer(val))
                elif _is_function(val):
                    w = wrappers.get(id(val))
                    if w is None:
                        w = self.wrap(val, "%s.%s" % (layer(val), val.__qualname__))
                        wrappers[id(val)] = w
                    self._set(mod, attr, val, w)

    def _install_class(self, cls, layer_name: str):
        for attr, val in list(vars(cls).items()):
            # constructors count as public: ManinSymbolSpace(N) does its
            # work in __init__, which would otherwise be charged to the caller
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (layer_name, cls.__qualname__, attr)
            if isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, val, type(val)(self.wrap(val.__func__, name)))
            elif isinstance(val, types.FunctionType):
                self._set(cls, attr, val, self.wrap(val, name))

    def _set(self, target, attr, old, new):
        self._undo.append((target, attr, old))
        setattr(target, attr, new)

    def uninstall(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)


def _is_function(val) -> bool:
    # plain functions, and functools.lru_cache wrappers around them
    return isinstance(val, types.FunctionType) or hasattr(val, "cache_info")
