"""The benchmark's tracer against the package it wraps.

`perfbench/tracer.py` times evonets by replacing functions at the names
listed in its `WRAPS`; a traced benchmark run reports any name it cannot
find. The tests here never run the benchmark, so this test loads the tracer
by path and checks that every one of those names still resolves.
"""

import importlib.util
from pathlib import Path

import evonets.cli  # noqa: F401  (the tracer wraps names in every module, cli included)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    tracer = load_tracer()
    assert tracer.WRAPS
    t = tracer.Tracer()
    t.install("evonets")
    try:
        assert t.missing == [], f"wrap targets missing from evonets: {t.missing}"
    finally:
        t.uninstall()
