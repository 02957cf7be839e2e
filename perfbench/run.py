"""Run one aecomm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bler_awgn --seed 1 --seconds 40 --trace 0

A run is a closed loop with one client in one process: it repeats the
workload's pass until --seconds have gone by (at least one pass).  With
--trace 0 it reports the end-to-end metrics over all the passes of the run;
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones.  Every pass's outputs are checked;
each failed check counts as a failed operation.  The last line of standard output is the
result as one JSON object, and a fuller record (machine fingerprint, every
pass, every failed check) is written under .perfbench_out/.
"""

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import common

SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="train_sweep, bler_awgn or robust_par")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: sets the config seeds and "
                             "substream keys")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat the measured pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _monotonic():
    # CLOCK_MONOTONIC is one clock for all processes, so a time read in a
    # child can be compared with one read here.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupSampler:
    """Times set-up: from spawning a fresh process until it is ready, having
    imported aecomm, built the workload's config, and loaded and verified
    the checkpoint.  The child prints the time at which it was ready.

    The host's speed shifts in phases of seconds, so the samples are spread
    evenly over the run (one is due every seconds / SETUP_REPEATS), and
    setup_s is their median."""

    def __init__(self, args):
        self.command = [sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"]
        self.interval = args.seconds / SETUP_REPEATS
        self.times = []

    def sample(self):
        start = _monotonic()
        # no timeout: with one, the wait polls and rounds up to 50 ms
        child = subprocess.run(self.command, check=True,
                               stdout=subprocess.PIPE, text=True)
        self.times.append(float(child.stdout.split()[-1]) - start)

    def sample_if_due(self, elapsed):
        if len(self.times) < SETUP_REPEATS and \
                elapsed >= len(self.times) * self.interval:
            self.sample()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, read from the library
    itself; None if it is not OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_fingerprint():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def code_digest():
    """Digest of the program and benchmark sources and the checkpoint: runs
    with equal digests and seeds must produce equal outputs."""
    digest = hashlib.sha256()
    for top in (os.path.join(common.SRC, "aecomm"), common.BENCH_DIR):
        for name in sorted(os.listdir(top)):
            if name.endswith((".py", ".ckpt")):
                with open(os.path.join(top, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _timed_pass(workload):
    start = time.perf_counter()
    result = workload.run()
    wall = time.perf_counter() - start
    return wall, workload.collect(result)


def _time_for_more(start, steps, seconds):
    """Start another step of the loop only if it should end by the deadline,
    judging its length by the mean step so far, so a run lasts at most
    about `seconds` whatever the pass length."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / steps <= seconds


def check_repeats(args, results):
    """Blocks and errors per point repeat across the passes of this run and
    across runs of the same code and seed in this checkout."""
    signatures = [json.dumps(r.curves) for r in results]
    checks = [("outputs repeat pass to pass",
               all(s == signatures[0] for s in signatures))]
    path = os.path.join(common.OUT_DIR, f"ref-{args.workload}-seed{args.seed}-"
                                        f"{code_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            checks.append(("outputs repeat run to run",
                           fh.read() == signatures[0]))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(signatures[0])
    return checks


def run_untraced(args, workload, workloads):
    """End-to-end metrics over the whole run.  The host's speed shifts in
    phases of seconds to minutes, often longer than a pass: a median of pass
    times picks one phase, while a total over the run averages them.  So wall_s is the
    mean pass time and the rates are all the work of the run over all its
    time."""
    setup = SetupSampler(args)
    walls, results = [], []
    start = time.perf_counter()
    setup.sample()
    while not walls or _time_for_more(start, len(walls), args.seconds):
        wall, result = _timed_pass(workload)
        walls.append(wall)
        results.append(result)
        if workload.probe is not None:
            workload.probe.run()
        setup.sample_if_due(time.perf_counter() - start)
    setup_s = setup.finish()
    blocks = [workloads.blocks_used(r.curves) for r in results]
    per_pass = {"wall_s": walls, "blocks": blocks, "setup_s": setup.times}
    if workload.probe is None:
        steps_per_s = sum(r.train_steps for r in results) / sum(walls)
    else:
        per_pass["probe_s"] = workload.probe.seconds
        steps_per_s = workload.probe.steps_per_s()
    metrics = {
        "wall_s": (sum(walls) / len(walls), "s"),
        "setup_s": (setup_s, "s"),
        "blocks_per_s": (sum(blocks) / sum(walls), "1/s"),
        "train_steps_per_s": (steps_per_s, "1/s"),
    }
    return metrics, results, per_pass


def run_traced(args, workload, tracing):
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones and the overhead is the difference of the medians."""
    tracer = tracing.Tracer()
    plain, traced, results = [], [], []
    start = time.perf_counter()
    # untraced, traced, traced, untraced, ...: each side goes first equally
    # often, so warm-up and drift land on both
    sides = itertools.cycle((False, True, True, False))
    while not traced or _time_for_more(start, len(plain) + len(traced),
                                       args.seconds):
        trace = next(sides)
        if trace:
            tracer.install()
        try:
            wall, result = _timed_pass(workload)
        finally:
            if trace:
                tracer.restore()
        (traced if trace else plain).append(wall)
        results.append(result)
    values = tracing.layer_metrics(tracer.spans, len(traced), sum(traced),
                                   threading.main_thread().ident)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain))
    zero = [name for name in workload.traced_nonzero if not values[name]]
    if zero:
        raise tracing.TraceError(
            f"{args.workload} must exercise these per-layer metrics, but they "
            f"read zero: {', '.join(zero)}")
    tracer.write(os.path.join(
        common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    metrics = {name: (values[name], unit)
               for name, unit in tracing.UNITS.items()}
    return metrics, results, {"wall_s": plain, "traced_wall_s": traced}


def main(argv=None):
    args = parse_args(argv)
    common.use_source_tree()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; expected "
                         f"one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(_monotonic()))
        return 0
    os.makedirs(common.OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    fingerprint = machine_fingerprint()
    print("machine " + json.dumps(fingerprint, sort_keys=True))

    if args.trace:
        import tracing
        metrics, results, per_pass = run_traced(args, workload, tracing)
    else:
        metrics, results, per_pass = run_untraced(args, workload, workloads)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    checks = [check for result in results
              for check in workloads.check_pass(workload, result)]
    checks += check_repeats(args, results)
    if workload.probe is not None and workload.probe.histories:
        checks.append(("training probe repeats and stays finite",
                       workload.probe.repeats()))
    failed = [name for name, ok in checks if not ok]

    print(f"{args.workload} seed {args.seed}: "
          f"{len(per_pass['wall_s'])} untraced passes, "
          "wall_s " + " ".join(f"{w:.3f}" for w in per_pass["wall_s"]))
    for name in failed:
        print(f"FAILED check: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:.6g} {unit}")

    record_path = os.path.join(
        common.OUT_DIR,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": fingerprint,
                   "per_pass": per_pass, "checks_attempted": len(checks),
                   "checks_failed": failed,
                   "metrics": {k: v[0] for k, v in metrics.items()}},
                  fh, indent=1)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
