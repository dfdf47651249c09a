"""The benchmark's per-layer names must name functions pinchcalc defines.

perfbench/spans.py wraps every public function of the pinchcalc modules
and reads its metrics by name; a name that no longer resolves makes a
traced run die with KeyError.  Most tests here read BENCHMARK.json and
spans.py and check the names; one runs a few commands under the tracer,
so its probes read the attributes of the pinch chain they need.
"""

import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import pinchcalc
from pinchcalc import cli

ROOT = Path(__file__).parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def public_functions():
    """module name -> names of the public functions it defines."""
    out = {}
    for info in pkgutil.iter_modules(pinchcalc.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pinchcalc.{info.name}")
        names = {name for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == module.__name__}
        if names:
            out[info.name] = names
    return out


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def per_layer_calls():
    return [name.removesuffix(".calls") for name in per_layer_names()
            if name.endswith(".calls")]


@pytest.fixture(scope="module")
def spans():
    return load_spans()


@pytest.fixture(scope="module")
def defined():
    return public_functions()


def test_per_layer_calls_name_public_functions(defined):
    names = per_layer_calls()
    assert names
    for name in names:
        module, function = name.split(".")
        assert function in defined.get(module, ()), name


def test_verify_sections_name_public_functions(spans, defined):
    assert set(spans.VERIFY_SECTIONS) == set(cli.MODES["all"])
    for name in spans.VERIFY_SECTIONS.values():
        module, function = name.split(".")
        assert function in defined.get(module, ()), name


def test_every_module_with_public_functions_is_traced(spans, defined):
    assert set(defined) <= set(spans.MODULES)


def test_traced_commands_give_every_per_layer_metric(spans):
    tracer = spans.Tracer(keep=0)
    with tracer.installed(), redirect_stdout(io.StringIO()):
        for argv in (["jvc", "8", "9"], ["report", "K", "2"],
                     ["verify", "all", "--max-n", "3"], ["pinch-number", "16", "21"]):
            assert cli.cli_main([*argv, "--json"]) == 0, argv
    metrics = tracer.snapshot()
    # perfbench/run.py adds trace.overhead_s from untraced rounds
    missing = set(per_layer_names()) - {"trace.overhead_s"} - set(metrics)
    assert not missing
    # the chain probe read the moves of the jvc and report chains
    assert metrics["pinch.moves_per_run"] > 0
    # each check's one function: J_2 and J_3, one scan of K_1..K_3, and the
    # report of K_2 with the five of verify
    assert metrics["families.verify_j_to_k.calls"] == 2
    assert metrics["families.verify_k_independence.calls"] == 1
    assert metrics["criteria.counterexample_report.calls"] == 6
    # every member chain comes from the member table: one for the sections
    # of verify, and one of five for tables
    assert metrics["cli.member_table.calls"] == 2
