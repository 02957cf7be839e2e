"""Paths and fixed inputs shared by the benchmark's scripts."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The fixed model that bler_awgn and robust_par decode with; regenerate it
# with make_checkpoint.py.
CHECKPOINT_PATH = os.path.join(BENCH_DIR, "ae_train7dB_seed0.ckpt")
CHECKPOINT_TRAIN_DB = 7.0
CHECKPOINT_SEED = 0
CHECKPOINT_SHA256 = (
    "91a54136a8f915b6ffaed4ab72aa0fe571d0c8f66f47b281d10441e6e516f114")


def use_source_tree():
    """Put the checkout's src/ first on sys.path, so the benchmark measures
    the source tree it sits next to and never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "aecomm", "__init__.py")):
        raise SystemExit(f"error: no aecomm package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
