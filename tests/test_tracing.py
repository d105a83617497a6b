"""The contract with perfbench's tracer, which patches cascadesr functions by
module attribute from outside (`perfbench/tracing.py`)."""

import ast
import importlib
import inspect
import json
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
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model_in": str(model_in), "model_out": str(model_out)}))
    calls = []
    original = trimming.trim

    def wrapper(*args, **kwargs):
        calls.append(args[3].mode)
        return original(*args, **kwargs)

    monkeypatch.setattr(trimming, "trim", wrapper)
    assert cli.main(["trim", "--config", str(config)]) == 0
    assert calls == [trimming.MODE_CASCADE_TRIM]
    assert model.load_model(str(model_out)).filter_counts() == [32, 16, 16, 16, 1]
