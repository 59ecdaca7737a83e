"""Tests of the benchmark's tracer:  python3 -m pytest bench/test_tracer.py"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from tracer import Tracer, load_spans  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    tr = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    with tr.span("outer"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    got = tr.summary()
    assert {k: v["self_s"] for k, v in got.items()} == {"outer": 4, "a": 2, "b": 3, "c": 1}
    assert {k: v["incl_s"] for k, v in got.items()} == {"outer": 10, "a": 2, "b": 4, "c": 1}
    assert list(tr.parent) == [-1, 0, 0, 2]


def test_recursive_span_counts_once_inclusive():
    tr = Tracer(clock=fake_clock(0, 1, 2, 3))
    f = tr.wrap(lambda k: k and f(k - 1), "f")
    f(1)
    got = tr.summary()["f"]
    assert got == {"calls": 2, "incl_s": 3, "self_s": 3}


@pytest.fixture
def installed():
    tr = Tracer()
    tr.install("starkheegner")
    yield tr
    tr.uninstall()


def names_of_parents(tr, child: str):
    nid = tr.names.index(child)
    return {tr.names[tr.name[tr.parent[i]]] for i, n in enumerate(tr.name)
            if n == nid and tr.parent[i] >= 0}


def test_names_imported_by_value_are_wrapped(installed):
    import starkheegner.linalg as linalg
    import starkheegner.modsym as modsym
    import starkheegner.oms as oms

    # modsym looks rref up in its own namespace; the span is linalg's
    assert modsym.rref is linalg.rref
    assert hasattr(modsym.rref, "__wrapped__")
    space = modsym.ManinSymbolSpace(15)
    phi = oms.OMSymbol(space, 5, 4, 1, 1)
    phi.apply_up()
    calls = installed.summary()
    for name in ("linalg.rref", "linalg.kernel_basis", "modsym.segments_between",
                 "arith.mat_mul", "padics.iwasawa_log"):
        assert calls[name]["calls"] > 0, name
    assert "modsym.ManinSymbolSpace.__init__" in names_of_parents(installed, "linalg.kernel_basis")
    assert "oms.OMSymbol.apply_up" in names_of_parents(installed, "modsym.segments_between")
    assert "oms.OMSymbol.apply_up" in names_of_parents(installed, "arith.mat_mul")
    assert "oms.TransportCache.matrices" in names_of_parents(installed, "padics.iwasawa_log")


def test_uninstall_restores_every_name():
    import starkheegner.linalg as linalg
    import starkheegner.modsym as modsym
    import starkheegner.oms as oms

    before = (linalg.rref, modsym.rref, oms.mat_mul, oms.TransportCache.transport)
    tr = Tracer()
    tr.install("starkheegner")
    assert modsym.rref is not before[1]
    tr.uninstall()
    assert (linalg.rref, modsym.rref, oms.mat_mul, oms.TransportCache.transport) == before


def test_dump_round_trip(tmp_path):
    tr = Tracer(clock=fake_clock(0.5, 1.0, 1.25, 2.0))
    with tr.span("x"):
        with tr.span("y"):
            pass
    path = tmp_path / "spans.bin"
    tr.dump(str(path))
    names, cols = load_spans(str(path))
    assert names == ["x", "y"]
    assert list(cols["parent"]) == [-1, 0]
    assert list(cols["start"]) == [0.5, 1.0] and list(cols["end"]) == [2.0, 1.25]
