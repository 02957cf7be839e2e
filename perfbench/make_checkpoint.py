"""Regenerate the fixed autoencoder checkpoint that bler_awgn and robust_par
decode with.

    python3 perfbench/make_checkpoint.py

Trains through the public API (harness.train_autoencoder with the default
ExperimentConfig at 7 dB, seed 0, 10k steps), writes the checkpoint with
nn.save_checkpoint and prints its sha256.  If the digest differs from
CHECKPOINT_SHA256 in perfbench/common.py, training changed bits: commit the
new file and digest together, and say so in the change.
"""

import hashlib

import common

common.use_source_tree()

from aecomm import config, harness, nn  # noqa: E402


def main():
    cfg = config.ExperimentConfig()
    params, _ = harness.train_autoencoder(cfg, common.CHECKPOINT_TRAIN_DB,
                                          common.CHECKPOINT_SEED)
    nn.save_checkpoint(params, common.CHECKPOINT_PATH)
    with open(common.CHECKPOINT_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"wrote {common.CHECKPOINT_PATH}\nsha256 {digest}")


if __name__ == "__main__":
    main()
