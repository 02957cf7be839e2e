"""Command-line surface: overlap, sweep, train, baseline, gradcheck, and
robustness subcommands over a sectioned key=value config file.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
Every artifact-producing run writes all outputs under --out plus a
manifest.json recording the config snapshot, seeds, timestamps, and a
sha256 digest per emitted file.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

from . import __version__ as _VERSION
from . import harness, nn
from .config import ExperimentConfig, load_config, serialize_config
from .errors import ConfigurationError

GRADCHECK_THRESHOLD = 1e-4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _atomic_write(path, data: bytes):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Run:
    """Artifact collector for one subcommand; writes the manifest at the end."""

    def __init__(self, args, config):
        self.command = args.command
        self.out_dir = args.out
        self.quiet = args.quiet
        self.config = config
        self.outputs = {}
        self.started = _utc_now()

    def say(self, text):
        if not self.quiet:
            print(text)

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def write_text(self, name, text):
        os.makedirs(self.out_dir, exist_ok=True)
        data = text.encode("utf-8")
        _atomic_write(self.path(name), data)
        self.outputs[name] = _digest(data)
        self.say(f"wrote {self.path(name)}")

    def add_file(self, name):
        with open(self.path(name), "rb") as fh:
            self.outputs[name] = _digest(fh.read())
        self.say(f"wrote {self.path(name)}")

    def finish(self) -> int:
        self.write_text("config.cfg", serialize_config(self.config))
        manifest = {
            "tool": "aecomm",
            "version": _VERSION,
            "command": self.command,
            "seeds": list(self.config.seeds),
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "config": serialize_config(self.config),
            "outputs": self.outputs,
        }
        os.makedirs(self.out_dir, exist_ok=True)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(self.path("manifest.json"), text.encode("utf-8"))
        self.say(f"wrote {self.path('manifest.json')}")
        return 0


def _parse_db_list(text):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ConfigurationError(
            f"--test-db: expected a list of finite dB values, got {text!r}")
    return values


def _train_db(args, zero_noise=True) -> float:
    """``--train-db``, finite or, where training takes it, +inf for zero
    noise; anything else is an error that names the flag."""
    db = args.train_db
    if not (math.isfinite(db) or (zero_noise and db == math.inf)):
        wanted = "a finite dB value" + (" or inf" if zero_noise else "")
        raise ConfigurationError(f"--train-db: expected {wanted}, got {db}")
    return db


def _worker_count(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


# -- subcommands --------------------------------------------------------------

def _cmd_overlap(run, args, config):
    train_db = _train_db(args, zero_noise=False)
    tests = _parse_db_list(args.test_db)
    rows = harness.overlap_table(train_db, tests, config.rate)
    for row in rows:
        run.say(f"test {row.test_ebn0_db:+g} dB: overlap "
                f"{row.overlap_pct:.2f}%  KL {row.kl_nats:.4f} nats")
    run.write_text("overlap.csv", harness.overlap_to_csv(rows))
    return run.finish()


def _cmd_sweep(run, args, config):
    result = harness.run_sweep(config, workers=args.workers, progress=run.say)
    run.write_text("sweep.csv", harness.sweep_to_csv(result.curves))
    run.write_text("plot_bler.py", harness.PLOT_SCRIPT)
    return run.finish()


def _cmd_train(run, args, config):
    train_db = _train_db(args)
    seed = config.seeds[0]
    run.say(f"training at {train_db:g} dB, seed {seed}")
    params, history = harness.train_autoencoder(config, train_db, seed)
    run.say(f"final loss {history.losses[-1]:.6g}")
    stem = f"model_train{train_db:+g}dB_seed{seed}"
    os.makedirs(run.out_dir, exist_ok=True)
    nn.save_checkpoint(params, run.path(stem + ".ckpt"))
    run.add_file(stem + ".ckpt")
    run.write_text(stem + "_history.csv", harness.history_to_csv(history))
    return run.finish()


def _cmd_baseline(run, args, config):
    curves = harness.baseline_curves(config, workers=args.workers,
                                     progress=run.say)
    run.write_text("baseline.csv",
                   harness.baseline_to_csv(curves, config.channel_kind))
    return run.finish()


def _cmd_gradcheck(run, args, config):
    worst = nn.gradient_check(seed=config.seeds[0], cases=10)
    print(f"max relative error: {worst:.3e}")
    if not worst < GRADCHECK_THRESHOLD:
        print(f"gradient check FAILED (threshold {GRADCHECK_THRESHOLD:g})",
              file=sys.stderr)
        return 2
    return 0


def _cmd_robustness(run, args, config):
    train_db = _train_db(args)
    seed = config.seeds[0]
    run.say(f"training reference model on {config.channel_kind} at "
            f"{train_db:g} dB, seed {seed}")
    params, _ = harness.train_autoencoder(config, train_db, seed)
    run.say("estimating BLER under channel variants")
    curves = harness.robustness_probe(params, config, train_db, seed,
                                      workers=args.workers)
    run.write_text("robustness.csv", harness.sweep_to_csv(curves))
    run.write_text("plot_bler.py", harness.PLOT_SCRIPT)
    return run.finish()


# -- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aecomm",
        description="End-to-end autoencoder link simulator: train models, "
                    "estimate block error rates, and measure train/test "
                    "distribution overlap.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_VERSION}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    def common(p, workers=False):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="config file path, or 'default' for built-in "
                            "defaults (also the default when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the config seed list with this one seed")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="directory for all outputs (default: current)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")
        if workers:
            p.add_argument("--workers", type=_worker_count, default=1,
                           help="threads running independent BLER "
                                "estimates; results are identical for any "
                                "count")

    p = sub.add_parser("overlap",
                       help="overlap/KL table between train and test "
                            "received-signal distributions")
    common(p)
    p.add_argument("--train-db", type=float, default=7.0,
                   help="training Eb/N0 in dB (default 7)")
    p.add_argument("--test-db", default="-4,0,5,8", metavar="LIST",
                   help="comma-separated test Eb/N0 dB values")
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser("sweep",
                       help="train autoencoders on the train grid and sweep "
                            "BLER over the test grid, with baselines")
    common(p, workers=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("train", help="train one autoencoder and save a "
                                     "checkpoint plus loss history")
    common(p)
    p.add_argument("--train-db", type=float, default=7.0,
                   help="training Eb/N0 in dB (default 7)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("baseline",
                       help="classical baseline BLER curves with closed-form "
                            "reference column")
    common(p, workers=True)
    p.set_defaults(handler=_cmd_baseline)

    p = sub.add_parser("gradcheck",
                       help="compare backprop gradients against central "
                            "finite differences")
    common(p)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("robustness",
                       help="evaluate a model trained on the configured "
                            "channel under correlated and Rayleigh channels")
    common(p, workers=True)
    p.add_argument("--train-db", type=float, default=7.0,
                   help="training Eb/N0 in dB (default 7)")
    p.set_defaults(handler=_cmd_robustness)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config in (None, "default"):
        config = ExperimentConfig()
    else:
        config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    return config


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _resolve_config(args)
    except (ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    run = _Run(args, config)
    try:
        return args.handler(run, args, config)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(run_command(sys.argv[1:]))
