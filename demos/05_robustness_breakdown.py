"""What happens to an AWGN-trained autoencoder on a channel it never saw?

One model is trained on the plain additive-noise channel, then evaluated on
three progressively harder mismatches: noise correlated across the block
(rho = 0.5 and 0.9) and Rayleigh block fading.  Correlation bends the curve;
fading breaks it.  Every variant at a test point reuses the same underlying
noise draws, so the comparison is paired rather than statistical.
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
    worst = max(r.bler / max(a.bler, 1e-12)
                for a, r in zip(awgn.points, rayleigh.points))
    print(f"fading inflates the block error rate by up to {worst:.0f}x on "
          "this grid;")
    print("the model's code relies on amplitude structure the fade destroys.")


if __name__ == "__main__":
    main()
