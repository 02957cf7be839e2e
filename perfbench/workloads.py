"""The benchmark's three workloads: set-up, one measured pass, and the
checks that every pass's outputs must satisfy.

Each workload derives all of its inputs from the workload seed: the config
seeds and the substream keys.  A pass returns the curves it produced as
plain (system, label, [(test_ebn0_db, blocks, block_errors), ...]) tuples,
so the checks below read every workload's output the same way.

Call common.use_source_tree() before importing this module.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, replace

import common
from aecomm import cli, codecs, config, harness, nn

# train_sweep: the default train grid (5 Eb/N0 x 3 seeds) with fewer steps, a
# test grid thinned to three points and a low block cap, so that training is
# about nine tenths of the wall time.
SWEEP_STEPS = 250
SWEEP_SEED_COUNT = 3
SWEEP_TEST_GRID = (-4.0, 8.0, 6.0)  # start, stop, step in dB
SWEEP_MAX_BLOCKS = 2000

# robust_par: the correlated-noise rhos and the estimator's worker count.
ROBUST_RHOS = (0.5, 0.9)
ROBUST_WORKERS = 2

# bler_awgn and robust_par run no training of their own, so they report
# train_steps_per_s from this fixed probe, timed between the measured passes.
PROBE_STEPS = 150
PROBE_REPEATS = 8

# Points are compared to closed forms and to their neighbours with Wilson
# intervals this wide, so a correct program fails a check less than once in
# a million points.
CHECK_Z = 5.0


@dataclass
class PassResult:
    curves: list  # [(system, label, [(db, blocks, errors), ...]), ...]
    train_steps: int  # optimizer steps taken in the pass
    exit_code: int = 0
    digests_ok: bool = True


def _plain(curves):
    return [(c.system, c.label,
             [(p.test_ebn0_db, p.blocks, p.block_errors) for p in c.points])
            for c in curves]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_checkpoint():
    digest = _sha256(common.CHECKPOINT_PATH)
    if digest != common.CHECKPOINT_SHA256:
        raise SystemExit(f"error: {common.CHECKPOINT_PATH} has sha256 {digest}, "
                         f"expected {common.CHECKPOINT_SHA256}")
    return nn.load_checkpoint(common.CHECKPOINT_PATH)


class Workload:
    """Set up in __init__ from the workload seed; run() is one measured pass;
    collect() reads back what the pass wrote, outside the timed region."""

    name = None
    traced_nonzero = ()  # per-layer metrics a traced run must see non-zero
    probe = None  # a TrainingProbe where the pass trains nothing

    def run(self):
        raise NotImplementedError

    def collect(self, result):
        return result

    def checks(self, result):
        """(name, ok) for the checks particular to this workload."""
        return []


class TrainSweep(Workload):
    """`aecomm sweep --workers 1` through cli.run_command."""

    name = "train_sweep"
    traced_nonzero = (
        "rng.substream.calls", "channels.draw.ns_per_row.awgn",
        "channels.transmit.rows", "nn.loss_grad.calls", "nn.loss_grad.us_per_call",
        "nn.adam.us_per_call", "nn.predict.ns_per_row", "codecs.mld.ns_per_row",
        "codecs.hard.ns_per_row", "codecs.demap.ns_per_row",
        "harness.estimate.calls", "harness.blocks_used", "harness.train.self_s",
        "cli.self_s", "rng.share", "channels.share", "nn.share",
        "codecs.share", "harness.share", "cli.share")

    def __init__(self, seed):
        self.dir = os.path.join(common.OUT_DIR, f"train_sweep-seed{seed}")
        self.out = os.path.join(self.dir, "out")
        self.cfg_path = os.path.join(self.dir, "sweep.cfg")
        start, stop, step = SWEEP_TEST_GRID
        cfg = replace(config.ExperimentConfig(), steps=SWEEP_STEPS,
                      test_ebn0_start=start, test_ebn0_stop=stop,
                      test_ebn0_step=step, max_blocks=SWEEP_MAX_BLOCKS,
                      seeds=tuple(seed + i for i in range(SWEEP_SEED_COUNT)))
        self.steps = SWEEP_STEPS * len(cfg.train_ebn0_db) * len(cfg.seeds)
        os.makedirs(self.dir, exist_ok=True)
        config.save_config(cfg.validate(), self.cfg_path)

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        code = cli.run_command(["sweep", "--config", self.cfg_path,
                                "--out", self.out, "--quiet", "--workers", "1"])
        return PassResult(None, self.steps, exit_code=code)

    def collect(self, result):
        result.digests_ok = _manifest_matches(self.out)
        result.curves = _read_sweep_csv(os.path.join(self.out, "sweep.csv"))
        return result

    def checks(self, result):
        return [("sweep exit code is 0", result.exit_code == 0),
                ("manifest digests match the files", result.digests_ok)]


def _manifest_matches(out):
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        return bool(outputs) and all(
            digest == "sha256:" + _sha256(os.path.join(out, name))
            for name, digest in outputs.items())
    except (OSError, ValueError, KeyError):
        return False


def _read_sweep_csv(path):
    curves = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["system"], row["label"])
                curves.setdefault(key, []).append(
                    (float(row["test_ebn0_db"]), int(row["blocks"]),
                     int(row["block_errors"])))
    except (OSError, KeyError, ValueError):
        return []
    return [(system, label, points) for (system, label), points in curves.items()]


class BlerAwgn(Workload):
    """Baseline curves (hard, MLD, uncoded) plus one autoencoder curve from
    the fixed checkpoint, on the default grid and stop rule at 1 worker."""

    name = "bler_awgn"
    traced_nonzero = (
        "rng.substream.calls", "rng.substream.us_per_call",
        "channels.draw.ns_per_row.awgn", "channels.transmit.ns_per_row",
        "channels.transmit.rows", "nn.predict.ns_per_row",
        "codecs.mld.ns_per_row", "codecs.hard.ns_per_row",
        "codecs.demap.ns_per_row", "harness.blocks_simulated",
        "harness.blocks_used", "harness.sim_per_used", "harness.points_target",
        "harness.points_capped", "harness.estimate.self_s",
        "harness.estimate.calls", "rng.share", "channels.share", "nn.share",
        "codecs.share", "harness.share")

    def __init__(self, seed):
        self.seed = seed
        self.params = _load_checkpoint()
        self.config = config.ExperimentConfig(seeds=(seed,)).validate()
        self.stop = harness.StopRule(self.config.target_block_errors,
                                     self.config.max_blocks)
        self.specs = [(float(db), self.config.channel_spec(db))
                      for db in self.config.test_grid()]
        self.probe = TrainingProbe(seed)

    def run(self):
        curves = harness.baseline_curves(self.config, workers=1)
        points = [
            harness.estimate_bler(
                harness.autoencoder_system(self.params, spec), db, self.stop,
                seed_key=(self.seed, "bler", "ae-checkpoint", format(db, "g")),
                workers=1)
            for db, spec in self.specs]
        curves.append(harness.BlerCurve("autoencoder", "ae-checkpoint",
                                        common.CHECKPOINT_TRAIN_DB, 1, points))
        return PassResult(_plain(curves), 0)


class RobustPar(Workload):
    """harness.robustness_probe on the fixed checkpoint: AWGN, correlated
    noise at each rho, and Rayleigh, at 2 workers."""

    name = "robust_par"
    traced_nonzero = (
        "rng.substream.calls", "rng.substream.us_per_call",
        "channels.draw.ns_per_row.awgn",
        "channels.draw.ns_per_row.correlated_awgn",
        "channels.draw.ns_per_row.rayleigh", "channels.transmit.ns_per_row",
        "channels.transmit.rows", "nn.predict.ns_per_row",
        "harness.blocks_simulated", "harness.blocks_used",
        "harness.sim_per_used", "harness.points_target",
        "harness.points_capped", "harness.estimate.self_s",
        "harness.estimate.calls", "harness.pool_busy_frac", "rng.share",
        "channels.share", "nn.share", "harness.share")

    def __init__(self, seed):
        self.seed = seed
        self.params = _load_checkpoint()
        self.config = config.ExperimentConfig(seeds=(seed,)).validate()
        self.probe = TrainingProbe(seed)

    def run(self):
        curves = harness.robustness_probe(
            self.params, self.config, common.CHECKPOINT_TRAIN_DB, seed=self.seed,
            rhos=ROBUST_RHOS, include_rayleigh=True, workers=ROBUST_WORKERS)
        return PassResult(_plain(curves), 0)

    def checks(self, result):
        return [check_rayleigh_above_awgn(result.curves)]


class TrainingProbe:
    """PROBE_STEPS of harness.train_autoencoder at the checkpoint's Eb/N0,
    run PROBE_REPEATS times after each measured pass so that its samples
    spread over the whole run."""

    def __init__(self, seed):
        self.seed = seed
        self.config = replace(config.ExperimentConfig(), steps=PROBE_STEPS,
                              loss_log_interval=PROBE_STEPS).validate()
        self.seconds = []
        self.histories = []

    def run(self):
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _, history = harness.train_autoencoder(
                self.config, common.CHECKPOINT_TRAIN_DB, self.seed)
            self.seconds.append(time.perf_counter() - start)
            self.histories.append(history.losses)

    def steps_per_s(self):
        """Every probe step of the run over their total time.  The host's
        speed shifts in phases of seconds, and a rate over all the probe
        windows averages them where a median of short samples picks one."""
        return PROBE_STEPS * len(self.seconds) / sum(self.seconds)

    def repeats(self):
        """Every probe gave the same, finite loss history."""
        first = self.histories[0]
        return all(math.isfinite(x) for x in first) and all(
            h == first for h in self.histories)


WORKLOADS = {cls.name: cls for cls in (TrainSweep, BlerAwgn, RobustPar)}


# -- checks -------------------------------------------------------------------

def wilson(errors, blocks, z=CHECK_Z):
    """Wilson score interval, computed here rather than by the program
    under test."""
    p = errors / blocks
    z2 = z * z
    denom = 1.0 + z2 / blocks
    center = (p + z2 / (2.0 * blocks)) / denom
    half = z * math.sqrt(p * (1.0 - p) / blocks + z2 / (4.0 * blocks**2)) / denom
    return center - half, center + half


_CLOSED_FORMS = {
    "hamming_hard": codecs.hamming_hard_bler_closed_form,
    "uncoded": codecs.uncoded_bpsk_bler_closed_form,
}


def check_curves(curves):
    """(name, ok) for each output check on one pass's curves."""
    checks = [("curves present", bool(curves))]
    for system, label, points in curves:
        checks.append((f"{label}: blocks and errors valid",
                       bool(points) and all(0 <= e <= b and b > 0
                                            for _, b, e in points)))
        if not checks[-1][1]:
            continue
        closed = _CLOSED_FORMS.get(system)
        if closed is not None:
            for db, blocks, errors in points:
                low, high = wilson(errors, blocks)
                checks.append((f"{label} at {db:g} dB matches closed form",
                               low <= closed(db) <= high))
        rising = [db for (_, b0, e0), (db, b1, e1) in zip(points, points[1:])
                  if wilson(e1, b1)[0] > wilson(e0, b0)[1]]
        checks.append((f"{label}: does not rise with Eb/N0 "
                       f"(rises at {rising})", not rising))
    return checks


def check_rayleigh_above_awgn(curves):
    """The Rayleigh curve lies above the AWGN curve at the top grid point."""
    by_label = {label: points for _, label, points in curves}
    try:
        _, b_awgn, e_awgn = by_label["ae-awgn"][-1]
        _, b_ray, e_ray = by_label["ae-rayleigh"][-1]
    except KeyError:
        return ("rayleigh above awgn at the top point", False)
    return ("rayleigh above awgn at the top point",
            wilson(e_ray, b_ray)[0] > wilson(e_awgn, b_awgn)[1])


def check_pass(workload, result):
    return check_curves(result.curves) + workload.checks(result)


def blocks_used(curves):
    return sum(blocks for _, _, points in curves for _, blocks, _ in points)
