"""Command-line surface: overlap, sweep, train, baseline, gradcheck, and
robustness subcommands over a sectioned key=value config file.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
Every artifact-producing run writes its outputs under --out only after its
work has succeeded: each output in order, then config.cfg, then a
manifest.json recording the config snapshot, seeds, timestamps, and a
sha256 digest per emitted file.  A run that fails in its work writes nothing.
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
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1,
    # and the usage shown is that of the parser that failed
    def error(self, message):
        raise _UsageError(message, self)


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


def _parse_db_list(text, config):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ConfigurationError(
            f"--test-db: expected a list of finite dB values, got {text!r}")
    config.check_ebn0("--test-db", values)
    return values


def _train_db(args, config, zero_noise=True) -> float:
    """``--train-db``, finite or, where training takes it, +inf for zero
    noise, with a noise variance on the configured channel; anything else
    is an error that names the flag."""
    db = args.train_db
    if not (math.isfinite(db) or (zero_noise and db == math.inf)):
        wanted = "a finite dB value" + (" or inf" if zero_noise else "")
        raise ConfigurationError(f"--train-db: expected {wanted}, got {db}")
    config.check_ebn0("--train-db", (db,))
    return db


def _worker_count(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


# -- subcommands --------------------------------------------------------------
# Each returns {file name: text or bytes} in write order; gradcheck returns
# its exit code and writes nothing.

def _cmd_overlap(args, config, say):
    train_db = _train_db(args, config, zero_noise=False)
    tests = _parse_db_list(args.test_db, config)
    rows = harness.overlap_table(train_db, tests, config.rate)
    for row in rows:
        say(f"test {row.test_ebn0_db:+g} dB: overlap "
            f"{100 * row.overlap:.2f}%  KL {row.kl_nats:.4f} nats")
    return {"overlap.csv": harness.overlap_to_csv(rows)}


def _cmd_sweep(args, config, say):
    curves = harness.run_sweep(config, workers=args.workers, progress=say)
    return {"sweep.csv": harness.sweep_to_csv(curves),
            "plot_bler.py": harness.PLOT_SCRIPT}


def _cmd_train(args, config, say):
    train_db = _train_db(args, config)
    seed = config.seeds[0]
    say(f"training at {train_db:g} dB, seed {seed}")
    params, history = harness.train_autoencoder(config, train_db, seed)
    if history.losses:  # empty at steps = 0
        say(f"final loss {history.losses[-1]:.6g}")
    stem = f"model_train{train_db:+g}dB_seed{seed}"
    return {stem + ".ckpt": nn.checkpoint_bytes(params),
            stem + "_history.csv": harness.history_to_csv(history)}


def _cmd_baseline(args, config, say):
    curves = harness.baseline_curves(config, workers=args.workers,
                                     progress=say)
    return {"baseline.csv": harness.baseline_to_csv(curves, config.channel_kind)}


def _cmd_gradcheck(args, config, say):
    worst = nn.gradient_check(seed=config.seeds[0], cases=10)
    print(f"max relative error: {worst:.3e}")
    if not worst < GRADCHECK_THRESHOLD:
        print(f"gradient check FAILED (threshold {GRADCHECK_THRESHOLD:g})",
              file=sys.stderr)
        return 2
    return 0


def _cmd_robustness(args, config, say):
    train_db = _train_db(args, config)
    seed = config.seeds[0]
    say(f"training reference model on {config.channel_kind} at "
        f"{train_db:g} dB, seed {seed}")
    params, _ = harness.train_autoencoder(config, train_db, seed)
    say("estimating BLER under channel variants")
    curves = harness.robustness_probe(params, config, train_db, seed,
                                      workers=args.workers)
    return {"robustness.csv": harness.sweep_to_csv(curves),
            "plot_bler.py": harness.PLOT_SCRIPT}


def _write_run(args, config, outputs, started_utc, say):
    """Write each output, then config.cfg, then manifest.json: the snapshot,
    seeds, timestamps and a sha256 digest per file."""
    def put(name, data):
        data = data.encode("utf-8") if isinstance(data, str) else data
        path = os.path.join(args.out, name)
        _atomic_write(path, data)
        say(f"wrote {path}")
        return _digest(data)

    os.makedirs(args.out, exist_ok=True)
    snapshot = serialize_config(config)
    digests = {name: put(name, data)
               for name, data in {**outputs, "config.cfg": snapshot}.items()}
    manifest = {
        "tool": "aecomm",
        "version": _VERSION,
        "command": args.command,
        "seeds": list(config.seeds),
        "started_utc": started_utc,
        "finished_utc": _utc_now(),
        "config": snapshot,
        "outputs": digests,
    }
    put("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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

    def command(name, handler, text, workers=False, train_db=False):
        p = sub.add_parser(name, help=text)
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
        if train_db:
            p.add_argument("--train-db", type=float, default=7.0,
                           help="training Eb/N0 in dB (default 7)")
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("overlap", _cmd_overlap, "overlap/KL table between train "
                "and test received-signal distributions", train_db=True)
    p.add_argument("--test-db", default="-4,0,5,8", metavar="LIST",
                   help="comma-separated test Eb/N0 dB values")
    command("sweep", _cmd_sweep, "train autoencoders on the train grid and "
            "sweep BLER over the test grid, with baselines", workers=True)
    command("train", _cmd_train, "train one autoencoder and save a "
            "checkpoint plus loss history", train_db=True)
    command("baseline", _cmd_baseline, "classical baseline BLER curves with "
            "closed-form reference column", workers=True)
    command("gradcheck", _cmd_gradcheck, "compare backprop gradients against "
            "central finite differences")
    command("robustness", _cmd_robustness, "evaluate a model trained on the "
            "configured channel under correlated and Rayleigh channels",
            workers=True, train_db=True)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config in (None, "default"):
        config = ExperimentConfig()
    else:
        config = load_config(args.config)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:  # the range config.seeds allows
            raise ConfigurationError(f"--seed: expected an integer in "
                                     f"[0, 2**64), got {args.seed}")
        config = replace(config, seeds=(args.seed,))
    return config


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported by the command's parser, with its usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        err.parser.print_usage(sys.stderr)
        return 1
    try:
        config = _resolve_config(args)
    except (ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    started_utc = _utc_now()
    say = (lambda text: None) if args.quiet else print
    try:
        outputs = args.handler(args, config, say)
        if isinstance(outputs, int):  # gradcheck's exit code
            return outputs
        _write_run(args, config, outputs, started_utc, say)
        return 0
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(run_command(sys.argv[1:]))
