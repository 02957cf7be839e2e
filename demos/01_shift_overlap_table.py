"""How far apart are the received-signal distributions at two operating points?

A model trained at one Eb/N0 sees received vectors y = x + n with a noise
variance fixed by the training point.  Evaluating at a different Eb/N0 changes
that variance, so train and test inputs are drawn from different
distributions.  This script quantifies the mismatch two ways: the area
overlap of the two densities (symmetric, bounded, in percent) and the KL
divergence (asymmetric, unbounded).
"""

from aecomm import compare_received_distributions

RATE = 4 / 7
TRAIN_DB = 7.0
TEST_DBS = [-4.0, 0.0, 5.0, 8.0]


def main():
    print(f"train point {TRAIN_DB:+g} dB, rate {RATE:.4g}")
    print()
    print("test dB   overlap    KL (nats)")
    for db in TEST_DBS:
        row = compare_received_distributions(TRAIN_DB, db, RATE)
        print(f"{row.test_ebn0_db:+7.1f}   {100 * row.overlap:6.2f}%   "
              f"{row.kl_nats:.4f}")

    print()
    print("KL is direction-dependent, overlap is not:")
    ab = compare_received_distributions(TRAIN_DB, -4.0, RATE)
    ba = compare_received_distributions(-4.0, TRAIN_DB, RATE)
    print(f"  KL(train 7 -> test -4) = {ab.kl_nats:.4f} nats")
    print(f"  KL(train -4 -> test 7) = {ba.kl_nats:.4f} nats")
    print(f"  overlap both ways      = {ab.overlap:.4f} = {ba.overlap:.4f}")

    print()
    print("In the full 7-dimensional received space the mismatch compounds:")
    for db in TEST_DBS:
        r1 = compare_received_distributions(TRAIN_DB, db, RATE, dimension=1)
        r7 = compare_received_distributions(TRAIN_DB, db, RATE, dimension=7)
        print(f"  test {db:+5.1f} dB: overlap {100 * r1.overlap:6.2f}% in 1-D, "
              f"{100 * r7.overlap:6.2f}% in 7-D")


if __name__ == "__main__":
    main()
