"""The benchmark's tracer wraps the library's entry points by name
(``perfbench/tracer.py``'s ``SPANS``).  Untraced runs never install it, so
these tests keep a renamed or moved entry point from surfacing only as a
failed traced run."""

from pathlib import Path

import pytest

import ppiprep
from ppiprep import ppip, semilattice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_tracer_binds_every_span_and_restores_the_library(tracer_module):
    original = ppiprep.horn.check_weak_triangle
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert ppiprep.horn.check_weak_triangle.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert ppiprep.horn.check_weak_triangle is original


@pytest.mark.parametrize("owner, name", [(ppip, "check_weak_triangle"),
                                         (semilattice.Semilattice, "is_median_semilattice")])
def test_tracer_install_fails_on_a_missing_entry_point(tracer_module, monkeypatch, owner, name):
    monkeypatch.delattr(owner, name)
    tracer = tracer_module.Tracer()
    try:
        with pytest.raises((AttributeError, KeyError)):
            tracer.install()
    finally:
        tracer.uninstall()
