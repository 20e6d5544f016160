"""Every name `bench/tracer.py` looks up in stokesim still exists.

The tracer wraps stokesim's functions and a few private helpers by name,
from outside the program, and skips a name it cannot find; the per-layer
metrics fed by that name then read 0 without any error.  This test reads
the tracer (it writes nothing under `bench/`) and checks each name
against the program, so a rename or a deletion fails here instead.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

from stokesim import cli, detection, fock, protocols
from stokesim.detection import PreparedBellAnalyzer

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
SOURCE = TRACER.read_text(encoding="utf-8")


def _tracer():
    """The tracer module, executed from its source without writing a
    bytecode cache next to it."""
    mod = types.ModuleType("bench_tracer")
    exec(compile(SOURCE, str(TRACER), "exec"), mod.__dict__)
    return mod


def _recorded(name, tracer):
    """Whether `install` records spans under `name`."""
    if name in tracer._ANALYZER_SPANS.values():
        method = next(m for m, span in tracer._ANALYZER_SPANS.items() if span == name)
        return inspect.isfunction(getattr(PreparedBellAnalyzer, method, None))
    layer, _, attr = name.partition(".")
    if layer not in tracer.LAYERS or attr.startswith("_"):
        return False
    mod = importlib.import_module(f"stokesim.{layer}")
    obj = getattr(mod, attr, None)
    return inspect.isfunction(obj) and obj.__module__ == mod.__name__


def test_every_traced_span_names_a_wrapped_function():
    tracer = _tracer()
    spans = {key for stat, key in tracer.SPAN_METRICS.values() if stat != "count"}
    # hooks count per call of their span; cli.main is the whole command,
    # the denominator of every self-time share
    spans |= set(tracer._HOOKS) | {"cli.main"}
    missing = sorted(name for name in spans if not _recorded(name, tracer))
    assert missing == []


def test_every_attribute_the_tracer_probes_exists():
    reg = fock.ModeRegistry(cutoff=2).add_photonic_path("a", basis="linear").add_photonic_path("b", basis="linear")
    analyzer = PreparedBellAnalyzer(fock.vacuum(reg), "a", "b")
    # the objects behind the names the tracer's hasattr/getattr probes use
    owners = {
        "detection": detection,
        "protocols": protocols,
        "cli": cli,
        "sampled": protocols._SampledProtocol,
        "analyzer": analyzer,
        "state": analyzer.state,
    }
    probes = [
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(ast.parse(SOURCE))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in ("hasattr", "getattr")
        and isinstance(call.args[1], ast.Constant)
    ]
    assert {"_condition_on_pattern", "_SampledProtocol", "fidelity"} <= {attr for _, attr in probes}
    for owner, attr in probes:
        assert owner in owners, f"the tracer probes {owner}.{attr}; name its object here"
        assert hasattr(owners[owner], attr), f"{owner}.{attr}"
