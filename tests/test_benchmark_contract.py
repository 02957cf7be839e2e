"""What the committed benchmark needs from the program.

perfbench/tracing.py names the functions its per-layer metrics come from,
and its training probe calls ``harness.train_autoencoder(config, db, seed)``.
perfbench/workloads.py, perfbench/run.py and perfbench/make_checkpoint.py
call the program's modules directly.  A refactor that renames, hides or
bypasses one of them, or drops an argument such a call passes, breaks the
benchmark without failing any other test.  The benchmark's sources are
read as they stand; nothing is written next to them.
"""

import ast
import importlib
import inspect
import types
from dataclasses import replace
from pathlib import Path

import pytest

from aecomm import ExperimentConfig, cli, harness, nn
from aecomm.config import save_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# the benchmark sources whose calls into the program are checked, and the
# aecomm modules whose attributes they call
CALLERS = (PERFBENCH / "workloads.py", PERFBENCH / "run.py",
           PERFBENCH / "make_checkpoint.py")
CALLED = ("harness", "config", "nn", "codecs", "cli")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_named_functions_are_public_functions_of_their_modules(tracing):
    assert tracing.NAMED
    for name in tracing.NAMED:
        layer, attr = name.split(".")
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(f"aecomm.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), name
        assert not fn.__name__.startswith("_"), name
        # the tracer wraps only functions defined in one of its layers
        assert fn.__module__ in {f"aecomm.{l}" for l in tracing.LAYERS}, name


def test_probe_call_returns_params_and_history():
    config = replace(ExperimentConfig(), steps=3, loss_log_interval=3)
    params, history = harness.train_autoencoder(config, 7.0, 0)
    assert isinstance(params, nn.ModelParams)
    assert params.flat.shape == (params.layout.parameter_count,)
    assert isinstance(history, harness.TrainingHistory)
    assert history.steps == [3]


def test_traced_sweep_reaches_every_training_function(tracing, tmp_path):
    config = replace(ExperimentConfig(), steps=4, train_ebn0_db=(0.0, 7.0),
                     seeds=(0, 1), test_ebn0_start=6.0, test_ebn0_stop=6.0,
                     max_blocks=500)
    path = tmp_path / "sweep.cfg"
    save_config(config, path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.run_command(["sweep", "--config", str(path), "--quiet",
                                "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == 0
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    # one lockstep trains both train points' seeds, with one call per step
    assert calls["harness.train_autoencoder"] == 1
    assert calls["nn.loss_and_gradients_given"] == 4
    assert calls["nn.adam_step"] == 4
    assert calls["cli.run_command"] == 1


def program_calls(path):
    """Every call of an attribute of an aecomm module in ``CALLED`` that the
    file imports by name, e.g. ``harness.estimate_bler(...)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "aecomm"
                for alias in node.names}
    modules = imported.intersection(CALLED)
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules]


def test_benchmark_calls_bind_to_current_signatures():
    faults, checked = [], 0
    for path in CALLERS:
        for call in program_calls(path):
            module, attr = call.func.value.id, call.func.attr
            where = f"{path.name}:{call.lineno} {module}.{attr}"
            fn = getattr(importlib.import_module(f"aecomm.{module}"), attr,
                         None)
            if not callable(fn):
                faults.append(f"{where}: not a callable of aecomm.{module}")
                continue
            # a starred argument has no count to check
            assert not any(isinstance(a, ast.Starred) for a in call.args), where
            assert all(k.arg is not None for k in call.keywords), where
            try:
                inspect.signature(fn).bind(*call.args,
                                           **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                faults.append(f"{where}: {exc}")
            checked += 1
    assert not faults, faults
    # the workloads call the program in many places; none found means the
    # parse above no longer sees them
    assert checked >= 10
