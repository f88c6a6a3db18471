"""The benchmark's tracer replaces functions at the sites the program calls
them from (``bench/tracer.py``, ``SPANS``).  Every such site must exist, so
that deleting or renaming a traced name fails here and not only when the
benchmark runs.  The tracer is loaded from its file, without writing its
bytecode cache, and never installed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer.SPANS


SITES = [site for _, sites in _spans() for site in sites]


@pytest.mark.parametrize("module,attr", SITES,
                         ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
