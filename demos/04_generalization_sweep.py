"""Train at one noise level, test at many: a miniature generalization sweep.

Autoencoders are trained at a few fixed Eb/N0 values, then every model is
evaluated across the whole test range alongside the classical baselines.
Models trained in heavy noise hold up better when tested away from their
training point; models trained nearly noise-free degrade sharply below it.

This is a reduced-size run for a quick look.  The full experiment is
`aecomm sweep`, which also writes the CSV and a plot script.
"""

from aecomm import ExperimentConfig, harness


def main():
    config = ExperimentConfig(
        steps=2500,
        train_ebn0_db=(-4.0, 8.0),
        seeds=(0,),
        test_ebn0_start=-4.0,
        test_ebn0_stop=8.0,
        test_ebn0_step=2.0,
        target_block_errors=200,
        max_blocks=200_000,
    )
    curves = {c.label: c for c in harness.run_sweep(
        config, workers=2, progress=lambda s: print("  " + s))}

    print()
    grid = [p.test_ebn0_db for p in curves["ae-train-4dB"].points]
    labels = ["ae-train-4dB", "ae-train+8dB", "hamming-mld", "uncoded-bpsk"]
    print("BLER by test Eb/N0:")
    print("  dB   " + "".join(f"{l:>15s}" for l in labels))
    for i, db in enumerate(grid):
        cells = "".join(f"{curves[l].points[i].bler:15.3e}" for l in labels)
        print(f"  {db:+3.0f}  {cells}")

    print()
    lo, hi = curves["ae-train-4dB"], curves["ae-train+8dB"]
    better = sum(a.bler <= b.bler for a, b in zip(lo.points, hi.points))
    print(f"noisy-trained model at or below the clean-trained one at "
          f"{better}/{len(grid)} test points; the clean model only wins "
          "near its own training point")


if __name__ == "__main__":
    main()
