"""The benchmark's per-layer counters against the functions its tracer wraps.

``perfbench/tracing.Tracer.install`` wraps every public function defined
in a layer module ``qformula.<layer>``, and a traced run looks each
per-layer counter of ``BENCHMARK.json`` up by name: a counter whose
function is gone ends that run in a ``KeyError``.  Both files are read
from their source, so nothing is written under ``perfbench/``.
"""
import importlib
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SPAN_KINDS = ("calls", "self_s", "total_s")


def _tracing():
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _span_counters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"] if m["name"].rsplit(".", 1)[1] in SPAN_KINDS]


@pytest.fixture(scope="module")
def wrapped():
    """The names ``layer.function`` that ``Tracer.install`` wraps."""
    tracing = _tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"qformula.{layer}")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    return set(tracer.stats)


def test_the_benchmark_declares_span_counters():
    assert len(_span_counters()) > 0


@pytest.mark.parametrize("counter", _span_counters())
def test_each_span_counter_names_a_function_the_tracer_wraps(counter, wrapped):
    assert counter.rsplit(".", 1)[0] in wrapped
