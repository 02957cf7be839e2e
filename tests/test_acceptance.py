"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line, so a plain pytest run doubles as a
checklist of the headline claims: the analytic overlap table, closed-form
agreement of the Monte Carlo baselines, the shape of the autoencoder BLER
curves and their gap to maximum-likelihood Hamming decoding, the
noisy-training generalization ordering, the Rayleigh breakdown, gradient
correctness, estimator cross-validation, and bit-level determinism.

The BLER-curve checks share one full-size sweep (module fixture); the
Rayleigh check trains that sweep's 7 dB model alone, and everything else runs
reduced or closed-form workloads.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from aecomm import ExperimentConfig, codecs, harness, shiftmetrics
from aecomm.channels import ChannelSpec
from aecomm.cli import run_command
from aecomm.config import save_config
from aecomm.rng import substream


def report(capsys, name, ok):
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def full_sweep():
    t0 = time.monotonic()
    curves = harness.run_sweep(ExperimentConfig(), workers=4)
    return curves, time.monotonic() - t0


def blers(curve):
    """The curve's BLER column, one entry per test point."""
    return np.array([p.bler for p in curve.points])


def crossing_db(curve, level):
    """Test Eb/N0 where the curve crosses the level, by log-linear
    interpolation between grid neighbors."""
    db = np.array([p.test_ebn0_db for p in curve.points])
    logs = np.log10(np.maximum(blers(curve), 1e-12))
    t = np.log10(level)
    for i in range(len(db) - 1):
        lo, hi = logs[i], logs[i + 1]
        if (lo - t) * (hi - t) <= 0 and lo != hi:
            return float(db[i] + (db[i + 1] - db[i]) * (lo - t) / (lo - hi))
    return None


def test_1_overlap_table_reference_values(tmp_path, capsys):
    t0 = time.monotonic()
    code = run_command(["overlap", "--config", "default", "--quiet",
                        "--out", str(tmp_path)])
    elapsed = time.monotonic() - t0
    rows = (tmp_path / "overlap.csv").read_text().splitlines()[1:]
    got = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    want = {-4.0: 45.70, 0.0: 62.97, 5.0: 88.91, 8.0: 94.43}
    deviations = {db: abs(got[db] - pct) for db, pct in want.items()}
    ok = (code == 0 and elapsed < 1.0
          and max(deviations.values()) <= 0.05)
    report(capsys, "[1/8] overlap table values (±0.05 pp, < 1 s)", ok)
    assert code == 0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    assert max(deviations.values()) <= 0.05, (got, deviations)


def test_2_hamming_hard_matches_closed_form(capsys):
    t0 = time.monotonic()
    stop = harness.StopRule(200, 10**6)
    points = []
    for db in (0.0, 2.0, 4.0, 6.0, 8.0):
        point = harness.estimate_bler(
            harness.hamming_hard_system(ChannelSpec("awgn", db, 4 / 7)),
            db, stop, (0, "bler", "baseline-check", f"{db:g}"))
        points.append((point, codecs.hamming_hard_bler_closed_form(db)))
    elapsed = time.monotonic() - t0
    covered = [p.ci_low <= want <= p.ci_high for p, want in points]
    ok = all(covered) and elapsed < 30.0
    report(capsys, "[2/8] hamming hard-decision CI covers closed form "
                   "(5 points, < 30 s)", ok)
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    for (p, want), cover in zip(points, covered):
        assert cover, (p, want)


def test_3_bler_curve_shape_and_mld_gap(full_sweep, capsys):
    curves, elapsed = full_sweep
    by_label = {c.label: c for c in curves}
    ae_labels = [l for l in by_label if l.startswith("ae-train")]

    monotone = {}
    for label in ae_labels:
        pts = by_label[label].points
        monotone[label] = all(pts[i + 1].ci_low <= pts[i].ci_high
                              for i in range(len(pts) - 1))
    ae7 = by_label["ae-train+7dB"]
    floor = ae7.points[-1].bler
    shift = abs(crossing_db(ae7, 1e-2) - crossing_db(by_label["hamming-mld"],
                                                     1e-2))
    ok = (len(ae_labels) == 5 and all(monotone.values())
          and floor < 1e-2 and shift <= 1.5 and elapsed < 600.0)
    report(capsys, "[3/8] bler curves monotone within CI, "
                   f"train+7dB floor {floor:.1e} < 1e-2, "
                   f"mld gap {shift:.2f} dB <= 1.5 (sweep {elapsed:.0f} s)", ok)
    assert len(ae_labels) == 5
    assert all(monotone.values()), monotone
    assert floor < 1e-2
    assert shift <= 1.5
    assert elapsed < 600.0, f"sweep took {elapsed:.0f} s"


def test_4_noisy_training_generalizes_better(full_sweep, capsys):
    curves, _ = full_sweep
    by_label = {c.label: c for c in curves}
    noisy = blers(by_label["ae-train-4dB"])
    clean = blers(by_label["ae-train+8dB"])
    wins = int(np.sum(noisy <= clean))
    needed = int(np.ceil(0.8 * len(noisy)))
    ok = wins >= needed
    report(capsys, f"[4/8] train-4dB <= train+8dB at {wins}/{len(noisy)} "
                   f"test points (need {needed})", ok)
    assert wins >= needed, (wins, len(noisy))


def test_5_rayleigh_breakdown(capsys):
    # the sweep's 7 dB model for the first seed: lockstep training is
    # bit-identical to training that seed alone
    config = ExperimentConfig()
    seed = config.seeds[0]
    params, _ = harness.train_autoencoder(config, 7.0, seed)
    awgn, rayleigh = harness.robustness_probe(
        params, config, 7.0, seed, rhos=(), include_rayleigh=True, workers=4)
    worse = [(a.test_ebn0_db, r.bler > a.bler)
             for a, r in zip(awgn.points, rayleigh.points)
             if a.test_ebn0_db >= 0.0]
    ok = all(flag for _, flag in worse)
    report(capsys, f"[5/8] rayleigh bler exceeds awgn bler at all "
                   f"{len(worse)} paired test points >= 0 dB", ok)
    assert ok, worse


def test_6_gradient_check_cli(capsys):
    t0 = time.monotonic()
    code = run_command(["gradcheck", "--quiet"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    worst = float(out.split(":")[1])
    ok = code == 0 and worst < 1e-4 and elapsed < 10.0
    report(capsys, f"[6/8] gradcheck max relative error {worst:.2e} < 1e-4 "
                   f"({elapsed:.1f} s < 10 s)", ok)
    assert code == 0
    assert worst < 1e-4
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_7_overlap_estimator_cross_validation(capsys):
    beyond = []
    for ratio in (1.2, 1.5, 2.5, 5.0, 10.0):
        for dim in (1, 2, 5, 10, 20):
            analytic = shiftmetrics.overlap_same_mean_isotropic(1.0, ratio, dim)
            mc = shiftmetrics.overlap_monte_carlo(
                1.0, ratio, dim, 10**6,
                substream(0, "accept-overlap", f"{ratio:g}", dim))
            if abs(analytic - mc.estimate) > 3 * mc.std_error:
                beyond.append((ratio, dim, analytic, mc.estimate))

    def kl_1d_quadrature(s2a, s2b):
        def integrand(x):
            p = np.exp(-x * x / (2 * s2a)) / np.sqrt(2 * np.pi * s2a)
            return p * ((x * x / 2) * (1 / s2b - 1 / s2a)
                        + 0.5 * np.log(s2b / s2a))
        value, _ = quad(integrand, -np.inf, np.inf)
        return value

    kl_cases = [(1.0, 2.0, 1), (1.0, 2.0, 7), (2.0, 1.0, 3), (1.0, 10.0, 2),
                (10.0, 1.0, 1), (1.0, 1.5, 20), (3.0, 7.0, 5), (0.5, 4.0, 7),
                (1.0, 100.0, 1), (5.0, 5.0, 4)]
    kl_err = max(abs(shiftmetrics.kl_same_mean(a, b, d)
                     - d * kl_1d_quadrature(a, b)) for a, b, d in kl_cases)
    ok = not beyond and kl_err < 1e-6
    report(capsys, "[7/8] analytic vs monte carlo overlap within 3 SE on "
                   f"5x5 grid, kl vs quadrature {kl_err:.1e} < 1e-6", ok)
    assert not beyond, beyond
    assert kl_err < 1e-6


def test_8_determinism_and_worker_invariance(tmp_path, capsys):
    cfg = tmp_path / "quick.cfg"
    save_config(ExperimentConfig(
        steps=120, train_ebn0_db=(7.0,), seeds=(0,), test_ebn0_start=0.0,
        test_ebn0_stop=8.0, test_ebn0_step=4.0, target_block_errors=30,
        max_blocks=10_000), cfg)
    contents = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        code = run_command(["sweep", "--config", str(cfg), "--quiet",
                            "--workers", workers, "--out", str(out)])
        assert code == 0
        contents.append((out / "sweep.csv").read_bytes())
    identical = contents[0] == contents[1]
    invariant = contents[0] == contents[2]
    ok = identical and invariant
    report(capsys, "[8/8] sweep csv byte-identical across runs and at 1 "
                   "and 2 workers", ok)
    assert identical
    assert invariant
