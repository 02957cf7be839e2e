"""Reference bytes: the CSVs of a reduced config and the default baseline
must equal committed sha256 digests, and a short ``aecomm train`` checkpoint
must equal committed weights.

The other tests check self-consistency (a run equals itself, 1 worker equals
2); these catch a change that moves output bits the same way on every run.
A change that moves bits on purpose updates the digests here in the same
commit and names them in CHANGES.md.  Checkpoint bits depend on the BLAS
kernel (weights differ by a few 1e-15 between kernels), so the checkpoint is
compared by its weights within a tolerance, not by digest.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from aecomm import ExperimentConfig, nn
from aecomm.cli import run_command
from aecomm.config import save_config

DATA = Path(__file__).resolve().parent / "data"

REDUCED = dict(steps=300, train_ebn0_db=(0.0, 7.0), test_ebn0_start=0.0,
               test_ebn0_stop=8.0, test_ebn0_step=4.0, max_blocks=30_000,
               seeds=(0, 1))

# (command and flags, output file) -> sha256 on the reduced config
REDUCED_DIGESTS = {
    (("sweep",), "sweep.csv"):
        "944771c2209d89ada65b16511898ed7c23cba43bfb15eaa3f0b2564e18c4e384",
    (("baseline",), "baseline.csv"):
        "be71b83e0728efa2c1c641dfc892c0d0e7d826d17b7af4cfb9484fa1f5e0bf40",
    (("robustness", "--train-db", "7"), "robustness.csv"):
        "0957f25abe7f26367f51c6617878fbe4976f569d98411ee220d495fada6b7e1a",
    (("overlap", "--train-db", "7"), "overlap.csv"):
        "317a99b295885363bb4d074fb7c24052916840cf646317f8bd403c07baac9c24",
}

DEFAULT_BASELINE_SHA256 = (
    "01788f08cd533848b40763b2a22d987d0a6626635cd7e0beffee8b06af3cd32c")

# `aecomm train --train-db 7` on the reduced config
TRAIN_CHECKPOINT = DATA / "reduced_train+7dB_seed0.ckpt"
WEIGHT_ATOL = 1e-12


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def reduced_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference") / "reduced.cfg"
    save_config(ExperimentConfig(**REDUCED), path)
    return str(path)


def run(argv, out):
    assert run_command([*argv, "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize("argv, name", list(REDUCED_DIGESTS),
                         ids=[name for _, name in REDUCED_DIGESTS])
def test_reduced_config_csv_digest(reduced_cfg, tmp_path, argv, name):
    run([*argv, "--config", reduced_cfg], tmp_path)
    assert sha256(tmp_path / name) == REDUCED_DIGESTS[argv, name]


def test_default_baseline_digest(tmp_path):
    run(["baseline"], tmp_path)
    assert sha256(tmp_path / "baseline.csv") == DEFAULT_BASELINE_SHA256


def test_train_checkpoint_weights(reduced_cfg, tmp_path):
    run(["train", "--train-db", "7", "--config", reduced_cfg], tmp_path)
    got = nn.load_checkpoint(tmp_path / "model_train+7dB_seed0.ckpt")
    want = nn.load_checkpoint(TRAIN_CHECKPOINT)
    assert got.layout == want.layout
    np.testing.assert_allclose(got.flat, want.flat, rtol=0, atol=WEIGHT_ATOL)
