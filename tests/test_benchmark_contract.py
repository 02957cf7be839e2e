"""What the committed benchmark needs from the program.

perfbench/tracing.py names the functions its per-layer metrics come from,
and its training probe calls ``harness.train_autoencoder(config, db, seed)``.
A refactor that renames, hides or bypasses one of them breaks the traced
benchmark without failing any other test.  The tracer's source is compiled
here as it stands; nothing is written next to it.
"""

import importlib
import inspect
import types
from dataclasses import replace
from pathlib import Path

import pytest

from aecomm import ExperimentConfig, cli, harness, nn
from aecomm.config import save_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    config = replace(ExperimentConfig(), steps=4, train_ebn0_db=(7.0,),
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
    assert calls["harness.train_autoencoder"] == 1
    # one call per lockstep step serves both seeds
    assert calls["nn.loss_and_gradients_given"] == 4
    assert calls["nn.adam_step"] == 4
    assert calls["cli.run_command"] == 1
