"""The contract with perfbench's tracer, which patches cascadesr functions by
module attribute from outside (`perfbench/tracing.py`)."""

import ast
import importlib
import inspect
import pathlib

from cascadesr import cli, model, ops, trimming

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> dict:
    """TRACED as perfbench/tracing.py declares it, read without importing perfbench."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_is_a_module_level_function():
    traced = traced_names()
    assert traced
    for owner, names in traced.items():
        module = importlib.import_module(f"cascadesr.{owner}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{owner}.{name}"


def test_cli_trim_calls_the_patched_cascade_trim(tmp_path, monkeypatch):
    # perfbench traces trimming.cascade_trim, and the tracer patches every
    # module attribute bound to it: trimming.trim too, which the CLI calls
    assert trimming.cascade_trim is trimming.trim
    model_in, model_out = tmp_path / "parent.ctsr", tmp_path / "slim.ctsr"
    model.save_model(model.build_network(5, ops.RngState(4)), str(model_in))
    calls = []
    original = trimming.trim

    def wrapper(*args, **kwargs):
        calls.append(args[3].mode)
        return original(*args, **kwargs)

    monkeypatch.setattr(trimming, "trim", wrapper)
    assert cli.main(["trim", "--model", str(model_in), "--out", str(model_out)]) == 0
    assert calls == [trimming.MODE_CASCADE_TRIM]
    assert model.load_model(str(model_out)).filter_counts() == [32, 16, 16, 16, 1]


def test_perfbench_default_plan_call_trims_as_trim_does():
    # perfbench's infer-large set-up: default_plan(depth, mode, seed=...) then cascade_trim
    net13 = model.build_network(13, ops.RngState(13))
    plan = trimming.default_plan(13, trimming.MODE_CASCADE_TRIM, seed=7)
    got, _ = trimming.cascade_trim(net13, None, None, plan)
    want, _ = trimming.trim(net13, None, None, trimming.TrimPlan())
    assert got.filter_counts() == [32] + [16] * 11 + [1]
    assert [l.weights.tobytes() for l in got.layers] == [l.weights.tobytes() for l in want.layers]
