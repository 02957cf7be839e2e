"""Decoder capacity on the link: BLER versus hidden width, with its cost.

The same code is trained at several decoder widths (O'Shea & Hoydis's
(7,4) autoencoder), and each width's BLER curve is estimated on the same
test blocks as the sweep's curve for that training point, so the widths
form a paired comparison.  Beside each width stand its parameter count and
the decoder's multiply-accumulates per received block, the compression
against latency trade-off in (7,4) terms.  Hamming MLD, one 7x16
correlation per block, is the reference.  The probe emits the numbers and
makes no claim about the shape.
"""

from aecomm import ExperimentConfig, harness, nn

WIDTHS = (2, 4, 8, 16, 32, 64)


def decoder_macs(layout):
    """Multiply-accumulates of the decoder's dense layers per block."""
    return sum(fan_in * fan_out for _, fan_in, fan_out in layout.layers[2:])


def main():
    config = ExperimentConfig(steps=2000, seeds=(0,), test_ebn0_start=2.0,
                              test_ebn0_stop=6.0, test_ebn0_step=2.0,
                              target_block_errors=100, max_blocks=200_000)
    print(f"training one decoder per width at 7 dB ({config.steps} steps "
          f"each) and estimating its BLER...")
    curves = harness.width_sweep(config, WIDTHS, train_ebn0_db=7.0)
    mld = next(c for c in harness.baseline_curves(config)
               if c.system == "hamming_mld")

    print()
    print("system          params   MACs/block   "
          + "   ".join(f"{f'BLER @ {db:g} dB':>13s}"
                       for db in config.test_grid()))
    for width, curve in zip(WIDTHS, curves):
        layout = nn.NetworkLayout(config.message_count, config.channel_uses,
                                  width)
        blers = "   ".join(f"{p.bler:13.3e}" for p in curve.points)
        print(f"{curve.label:14s}  {layout.parameter_count:6d}   "
              f"{decoder_macs(layout):10d}   {blers}")
    # MLD correlates the received block with all M codewords
    mld_macs = config.message_count * config.channel_uses
    blers = "   ".join(f"{p.bler:13.3e}" for p in mld.points)
    print(f"{mld.label:14s}  {'-':>6s}   {mld_macs:10d}   {blers}")

    print()
    print("csv form:")
    print(harness.sweep_to_csv(curves + [mld]), end="")


if __name__ == "__main__":
    main()
