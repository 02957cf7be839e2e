"""What happens to an AWGN-trained autoencoder on a channel it never saw?

One model is trained on the plain additive-noise channel, then evaluated on
three progressively harder mismatches: noise correlated across the block
(rho = 0.5 and 0.9) and Rayleigh block fading.  Correlation bends the curve;
fading breaks it.  At a test point the AWGN and correlated variants reuse
the same messages and noise draws, so their comparison is paired.  The
Rayleigh variant shares the messages but only the noise of each chunk's
first tile, because each tile's fades are drawn after its noise.

How much fading inflates the block error rate is read from the 95% Wilson
intervals: at each test point the ratio lies between the Rayleigh interval's
low end over the AWGN interval's high end and its high end over the AWGN
low end, unbounded above where the AWGN point saw no errors.  The demo
claims the largest lower end of these brackets.
"""

from aecomm import ExperimentConfig, harness

TRAIN_DB = 7.0


def main():
    config = ExperimentConfig(
        steps=2500,
        seeds=(0,),
        test_ebn0_start=0.0,
        test_ebn0_stop=8.0,
        test_ebn0_step=2.0,
        target_block_errors=200,
        max_blocks=200_000,
    )
    print(f"training on AWGN at {TRAIN_DB:+g} dB...")
    params, _ = harness.train_autoencoder(config, TRAIN_DB, config.seeds[0])
    print("evaluating under channel variants...")
    curves = harness.robustness_probe(params, config, TRAIN_DB,
                                      config.seeds[0], workers=2)

    print()
    print("BLER by test Eb/N0:")
    header = "".join(f"{c.label:>16s}" for c in curves)
    print("  dB " + header)
    grid = [p.test_ebn0_db for p in curves[0].points]
    for i, db in enumerate(grid):
        cells = "".join(f"{c.points[i].bler:16.3e}" for c in curves)
        print(f"  {db:+3.0f}{cells}")

    print()
    awgn, rayleigh = curves[0], curves[-1]
    print("Rayleigh over AWGN block error rate, bracketed by the 95% Wilson "
          "intervals:")
    lows = []
    for a, r in zip(awgn.points, rayleigh.points):
        low = r.ci_low / a.ci_high
        high = r.ci_high / a.ci_low if a.ci_low > 0 else float("inf")
        lows.append((low, a.test_ebn0_db))
        print(f"  {a.test_ebn0_db:+3.0f} dB  [{low:.3g}, {high:.3g}]x")
    low, db = max(lows)
    print(f"fading inflates the block error rate by at least {low:.0f}x "
          f"(at {db:+g} dB) on this grid;")
    print("the model's code relies on amplitude structure the fade destroys.")


if __name__ == "__main__":
    main()
