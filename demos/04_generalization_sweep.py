"""Train at one noise level, test at many: a miniature generalization sweep.

Autoencoders are trained at -4 dB (noisy) and +8 dB (clean), then each is
evaluated across the whole test range alongside the classical baselines.
At each test point the two models' 95% Wilson intervals give a verdict:
"noisy better" or "clean better" where they are disjoint, "unresolved"
where they overlap.  The demo prints each point's verdict and how often
each occurs, so a claim that one training point generalizes better comes
with its uncertainty.

The two curves draw their test blocks separately (one substream key per
curve label), so the comparison is unpaired: it resolves only differences
wider than the two intervals.

This is a reduced-size run for a quick look.  The full experiment is
`aecomm sweep`, which also writes the CSV and a plot script.
"""

from aecomm import ExperimentConfig, harness

VERDICTS = ("noisy better", "clean better", "unresolved")


def verdict(noisy, clean):
    """The verdict at one test point from the two 95% intervals."""
    if noisy.ci_high < clean.ci_low:
        return "noisy better"
    if clean.ci_high < noisy.ci_low:
        return "clean better"
    return "unresolved"


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
    noisy, clean = curves["ae-train-4dB"], curves["ae-train+8dB"]
    verdicts = [verdict(a, b) for a, b in zip(noisy.points, clean.points)]
    labels = ["ae-train-4dB", "ae-train+8dB", "hamming-mld", "uncoded-bpsk"]
    print("BLER by test Eb/N0, with the verdict of the two trained models:")
    print("  dB   " + "".join(f"{l:>15s}" for l in labels) + "   verdict")
    for i, p in enumerate(noisy.points):
        cells = "".join(f"{curves[l].points[i].bler:15.3e}" for l in labels)
        print(f"  {p.test_ebn0_db:+3.0f}  {cells}   {verdicts[i]}")

    print()
    print("noisy (-4 dB) against clean (+8 dB) training, 95% Wilson "
          "intervals on separate draws:")
    for name in VERDICTS:
        print(f"  {name}: {verdicts.count(name)}/{len(verdicts)} test points")


if __name__ == "__main__":
    main()
