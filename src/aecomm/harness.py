"""Experiment orchestration: training runs, Monte Carlo BLER with stopping
rules and Wilson intervals, the train/test generalization sweep, the
decoder-width probe, the channel-mismatch probe, and the CSVs.

Determinism contract: every random draw comes from a named substream.
Training keys are (seed, purpose): the models of one seed share each step's
messages, standard normals and fades, and a model's operating point only
shapes the shared normals into its noise.  BLER keys are (seed, purpose,
operating point, chunk index).  One BLER estimate walks fixed-size chunks
in index order, each on its own substream, and stops at the exact block
where the target error count is reached.  Within a chunk the messages are
drawn whole.  Each system is a ``Link`` value: a channel spec, a codebook
and a decoder.  The estimate sends the codewords in tiles of ``TILE_ROWS``
rows, one ``channels.transmit`` per tile, decodes each tile, and draws no
tile after the one that reaches the target.
Parallelism is one level: each command runs all its whole estimates, one
per (curve, point, seed), on one pool of ``workers`` threads.  Each
estimate owns its substreams, so every result is invariant to the worker
count.  The CSVs write a float as its repr, an int as str, and a missing
value as an empty field.
"""

import numbers
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import channels, codecs, nn
from .config import ExperimentConfig, db_key
from .errors import (ConfigurationError, DegenerateCodewordError,
                     DivergenceError)
from .rng import substream

DEFAULT_CHUNK_BLOCKS = 20_000
# Rows per transmitted tile: every decoder temporary of a tile stays under
# 128 KB, and its matrix products are small enough for one BLAS thread.
TILE_ROWS = 1024

# two-sided 95%: scipy.special.ndtri(0.975), written out so that importing
# aecomm does not import scipy
_Z95 = 1.959963984540054


def wilson_interval(errors: int, blocks: int):
    """Wilson score interval for a binomial proportion."""
    if blocks < 1:
        raise ValueError("wilson interval needs at least one trial")
    if not 0 <= errors <= blocks:
        raise ValueError(f"wilson interval needs 0 <= errors <= blocks, got "
                         f"{errors} errors in {blocks} blocks")
    p = errors / blocks
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / blocks
    center = (p + z2 / (2.0 * blocks)) / denom
    half = _Z95 * np.sqrt(p * (1.0 - p) / blocks + z2 / (4.0 * blocks**2)) / denom
    # at p = 0 and p = 1 the exact bound is the endpoint; rounding can land
    # one ulp inside, so snap those cases
    low = 0.0 if errors == 0 else max(0.0, float(center - half))
    high = 1.0 if errors == blocks else min(1.0, float(center + half))
    return low, high


@dataclass(frozen=True)
class StopRule:
    """Stop at target_block_errors or max_blocks, whichever comes first."""

    target_block_errors: int = 200
    max_blocks: int = 1_000_000

    def __post_init__(self):
        # a float or bool count would fail deep in the estimator or run
        # silently at the wrong size, so the type is checked like a config's
        for name in ("target_block_errors", "max_blocks"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{name}: must be an integer, got {value!r}", key=name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1")


@dataclass(frozen=True)
class BlerPoint:
    """Counts at one Eb/N0; bler and the Wilson interval derive from them."""

    test_ebn0_db: float
    blocks: int
    block_errors: int

    def __post_init__(self):
        # the CSV would write a NumPy Eb/N0 as np.float64(...), and a float
        # count is rejected, not truncated
        for name, cast in (("test_ebn0_db", float), ("blocks", operator.index),
                           ("block_errors", operator.index)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        wilson_interval(self.block_errors, self.blocks)  # rejects bad counts

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.block_errors, self.blocks)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.block_errors, self.blocks)[1]


@dataclass
class BlerCurve:
    system: str
    label: str
    train_ebn0_db: float | None
    seed_count: int
    points: list

    def __post_init__(self):
        dbs = [p.test_ebn0_db for p in self.points]
        if sorted(set(dbs)) != dbs:
            raise ValueError("curve points must be sorted by test_ebn0_db, "
                             "without duplicates")


@dataclass(frozen=True, eq=False)
class Link:
    """A message-in/message-out link: ``codebook[messages]`` sent through
    ``spec``, and ``decode`` of each received tile as message indices."""

    spec: channels.ChannelSpec
    codebook: np.ndarray
    decode: object  # callable (received tile) -> message indices


def estimate_bler(link: Link, test_ebn0_db: float, stop: StopRule,
                  seed_key, workers: int = 1) -> BlerPoint:
    """Monte Carlo BLER with a deterministic chunked substream scheme.

    ``seed_key`` is a tuple of int/str substream keys; chunk i draws from
    ``substream(*seed_key, i)``.  Chunks hold ``DEFAULT_CHUNK_BLOCKS`` blocks
    (the last one fewer, at ``max_blocks``), run in index order, and the
    count stops at the exact block where the target error count is reached.
    Each tile of ``TILE_ROWS`` messages is sent by one ``channels.transmit``
    on the chunk's substream and decoded; no tile after the one that reaches
    the target is drawn.  ``workers`` has no effect: the curve routines run
    whole estimates in parallel instead.
    """
    target = stop.target_block_errors
    blocks = errors = index = 0
    while errors < target and blocks < stop.max_blocks:
        rng = substream(*seed_key, index)
        msgs = rng.integers(0, len(link.codebook),
                            min(DEFAULT_CHUNK_BLOCKS, stop.max_blocks - blocks))
        for start in range(0, msgs.size, TILE_ROWS):
            sent = msgs[start:start + TILE_ROWS]
            y = channels.transmit(link.spec, link.codebook[sent], rng)
            wrong = np.flatnonzero(link.decode(y) != sent)
            if errors + wrong.size >= target:
                blocks += int(wrong[target - errors - 1]) + 1
                errors = target
                break
            blocks += sent.size
            errors += wrong.size
        index += 1
    return BlerPoint(test_ebn0_db, blocks, errors)


# -- links --------------------------------------------------------------------
# Each decoder looks its function up on the module at call time, so a
# wrapper installed on the module attribute sees every tile.

def autoencoder_system(params: nn.ModelParams,
                       spec: channels.ChannelSpec) -> Link:
    return Link(spec, nn.codebook(params), lambda y: nn.predict(params, y))


def hamming_hard_system(spec: channels.ChannelSpec) -> Link:
    return Link(spec, codecs.CODEBOOK_BPSK, lambda y: codecs.bits_to_message(
        codecs.hamming_hard_decode(y)))


def hamming_mld_system(spec: channels.ChannelSpec) -> Link:
    return Link(spec, codecs.CODEBOOK_BPSK,
                lambda y: codecs.hamming_mld_message(y))


def uncoded_system(spec: channels.ChannelSpec) -> Link:
    """4 info bits sent as 4 BPSK uses at per-info-bit energy Eb (rate 1)."""
    symbols = codecs.bpsk_map(codecs.message_to_bits(np.arange(2**codecs.K)))
    return Link(spec, symbols, lambda y: codecs.bits_to_message(
        codecs.bpsk_demap(y)))


# -- training -----------------------------------------------------------------

@dataclass
class TrainingHistory:
    steps: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def record(self, step, loss):
        self.steps.append(int(step))
        self.losses.append(float(loss))


def train_autoencoder(config: ExperimentConfig, train_ebn0_db, seed):
    """Train one autoencoder at a fixed Eb/N0 with Adam from
    ``init_params(layout, seed)``; deterministic per (config, train Eb/N0,
    seed).  Returns (ModelParams, TrainingHistory) with the loss recorded
    every ``loss_log_interval`` steps.

    Each step draws the messages from ``substream(seed, "train")`` and the
    standard normals, then any Rayleigh fades, from ``substream(seed,
    "channel", "train")``; the train Eb/N0 only shapes the normals into
    the noise.

    Either argument may be a tuple, and then the grid they span trains in
    lockstep on a leading model axis and comes back as a tuple of pairs,
    model k at ``dbs[k // len(seeds)]`` with ``seeds[k % len(seeds)]``.
    The models of one seed, every ``len(seeds)``-th row of the step's
    arrays in one ``nn.Workspace``, share one draw per step, each shaping
    it by its own channel spec, so every model is bit-identical to
    training it alone.  A numerical failure stops every model; it names
    the failing model's train Eb/N0 and seed and the step.
    """
    dbs = (train_ebn0_db if isinstance(train_ebn0_db, tuple)
           else (train_ebn0_db,))
    seeds = seed if isinstance(seed, tuple) else (seed,)
    for name, values in (("train_ebn0_db", dbs), ("seed", seeds)):
        if not values:
            raise ConfigurationError(f"{name}: needs at least one value, "
                                     f"got ()", key=name)
    layout = nn.NetworkLayout(config.message_count, config.channel_uses,
                              config.decoder_hidden)

    def failure(kind, text, step, k):
        return kind(f"training at {dbs[k // len(seeds)]:g} dB, "
                    f"seed {seeds[k % len(seeds)]}: {text}", step=step, model=k)

    params = nn.ModelParams(layout, np.stack(
        [nn.init_params(layout, s).flat for _ in dbs for s in seeds]))
    state = nn.AdamState.for_params(
        params, config.learning_rate, config.beta1, config.beta2,
        config.epsilon)
    histories = [TrainingHistory() for _ in dbs for _ in seeds]
    work = nn.Workspace()
    messages = work.array("messages", (len(histories), config.batch_size),
                          np.int64)
    noise = work.array("noise", messages.shape + (config.channel_uses,))
    fade = (work.array("fade", messages.shape)
            if config.channel_kind == "rayleigh" else None)
    specs = [config.channel_spec(db) for db in dbs]
    # per seed: its models' rows and its message and channel substreams
    draws = [(slice(i, None, len(seeds)), substream(s, "train"),
              substream(s, "channel", "train")) for i, s in enumerate(seeds)]
    for step in range(1, config.steps + 1):
        for rows, msg_rng, noise_rng in draws:
            messages[rows] = msg_rng.integers(0, config.message_count,
                                              config.batch_size)
            fades = channels.draw_shared_disturbance(specs, noise_rng,
                                                     noise[rows])
            if fade is not None:
                fade[rows] = fades
        try:
            losses, grads = nn.loss_and_gradients_given(params, messages,
                                                        noise, fade, work)
        except (DivergenceError, DegenerateCodewordError) as exc:
            raise failure(type(exc), exc, step, exc.model) from exc
        nn.adam_step(params, grads, state)
        if not np.isfinite(params.flat).all():
            finite = np.isfinite(params.flat).all(axis=-1)
            raise failure(DivergenceError, "non-finite parameters after "
                          "update", step, int(np.argmin(finite)))
        if step % config.loss_log_interval == 0 or step == config.steps:
            for history, loss in zip(histories, losses):
                history.record(step, loss)
    pairs = [(nn.ModelParams(layout, flat), history)
             for flat, history in zip(params.flat, histories)]
    grid = isinstance(train_ebn0_db, tuple) or isinstance(seed, tuple)
    return tuple(pairs) if grid else pairs[0]


# -- sweep --------------------------------------------------------------------

def _curves(rows, config: ExperimentConfig, workers) -> list:
    """One BLER curve over the config's test grid per row, in row order.

    A row is ``(system, label, train_ebn0_db, link_for, seeds, key)``.  Each
    point pools the counts of one estimate per seed of its row; the estimate
    for ``seed`` at ``db`` runs ``link_for(seed, db)`` on the chunk
    substreams ``(seed, "bler", key, db)``, so rows that share ``key`` and a
    seed see the same draws.  All estimates run on one pool of ``workers``
    threads, or in the caller at one worker, top of the grid first, where
    they run longest, so that no thread idles behind a long last task.
    Each owns its substreams, so the curves are the same at any count.
    """
    stop = StopRule(config.target_block_errors, config.max_blocks)
    grid = config.test_grid()
    tasks = [(i, j, seed) for j in reversed(range(len(grid)))
             for i, row in enumerate(rows) for seed in row[4]]

    def estimate(task):
        i, j, seed = task
        _, _, _, link_for, _, key = rows[i]
        return estimate_bler(link_for(seed, grid[j]), grid[j], stop,
                             seed_key=(seed, "bler", key, db_key(grid[j])))

    if workers == 1:
        estimates = list(map(estimate, tasks))
    else:
        with ThreadPoolExecutor(workers) as pool:
            estimates = list(pool.map(estimate, tasks))
    blocks, errors = {}, {}  # by (row, point), over the row's seeds
    for (i, j, _), p in zip(tasks, estimates):
        blocks[i, j] = blocks.get((i, j), 0) + p.blocks
        errors[i, j] = errors.get((i, j), 0) + p.block_errors
    return [BlerCurve(system, label, train_db, len(seeds),
                      [BlerPoint(db, blocks[i, j], errors[i, j])
                       for j, db in enumerate(grid)])
            for i, (system, label, train_db, _, seeds, _) in enumerate(rows)]


def _autoencoder_rows(config: ExperimentConfig, train_dbs, say) -> list:
    """Train the config's seeds at every Eb/N0 of ``train_dbs``, all in one
    lockstep, and return one row per train Eb/N0 in that order, over the
    seeds, labelled and keyed ``ae-train{db:+g}dB``."""
    seeds = tuple(config.seeds)
    say(f"training autoencoders at {', '.join(f'{db:g}' for db in train_dbs)}"
        f" dB, seeds {', '.join(map(str, seeds))}")
    trained = train_autoencoder(config, train_dbs, seeds)
    rows = []
    for i, train_db in enumerate(train_dbs):
        point = trained[i * len(seeds):(i + 1) * len(seeds)]
        models = {seed: params for seed, (params, _) in zip(seeds, point)}
        label = f"ae-train{train_db:+g}dB"
        rows.append((
            "autoencoder", label, float(train_db),
            lambda seed, db, models=models: autoencoder_system(
                models[seed], config.channel_spec(db)),
            seeds, label))
    return rows


def _baseline_rows(config: ExperimentConfig) -> list:
    """The baseline rows; raises unless the config is at the Hamming rate."""
    if (config.block_bits, config.channel_uses) != (codecs.K, codecs.N):
        raise ConfigurationError(
            f"classical baselines are fixed at rate {codecs.K}/{codecs.N}; "
            f"got {config.rate}")
    rate = float(config.rate)
    baselines = (
        ("hamming_hard", "hamming-hard", hamming_hard_system, rate),
        ("hamming_mld", "hamming-mld", hamming_mld_system, rate),
        ("uncoded", "uncoded-bpsk", uncoded_system, 1.0),
    )
    return [(system_name, label, None,
             lambda _, db, make=make, system_rate=system_rate: make(
                 channels.ChannelSpec(config.channel_kind, db, system_rate,
                                      rho=config.rho)),
             config.seeds[:1], "baseline-channel")
            for system_name, label, make, system_rate in baselines]


def run_sweep(config: ExperimentConfig, workers: int = 1,
              progress=None) -> list:
    """Train one autoencoder per (train Eb/N0, seed), all of them in one
    lockstep, and return the test-grid curves: one per train Eb/N0 in
    ``train_ebn0_db`` order, pooling blocks and errors across seeds, then
    the ``baseline_curves`` (Hamming hard, Hamming MLD, uncoded BPSK) on the
    first seed.  ``progress`` is an optional callable taking a status string.
    """
    say = progress if progress is not None else lambda text: None
    baselines = _baseline_rows(config)  # checks the rate before training
    rows = _autoencoder_rows(config, config.train_ebn0_db, say) + baselines
    say(f"estimating BLER for {', '.join(row[1] for row in rows)}")
    return _curves(rows, config, workers)


def baseline_curves(config: ExperimentConfig, workers: int = 1,
                    progress=None) -> list:
    """Hamming hard-decision, Hamming MLD, and uncoded BPSK over the test
    grid, on the config's channel kind at each system's own rate.  Hard and
    MLD share one substream per point, so their noise is matched draw for
    draw."""
    say = progress if progress is not None else lambda text: None
    rows = _baseline_rows(config)
    say(f"estimating BLER for {', '.join(row[1] for row in rows)}")
    return _curves(rows, config, workers)


# -- width probe --------------------------------------------------------------

def width_sweep(config: ExperimentConfig, widths,
                train_ebn0_db: float = 7.0) -> list:
    """Capacity probe: the sweep's training and BLER curve at
    ``train_ebn0_db`` once per decoder width, labelled ``ae-width{w}``.
    Every width draws the sweep's test blocks for that point, so the curves
    are a paired comparison and the config's own width reproduces the
    sweep's curve.  A training failure names the width."""
    rows = []
    for width in widths:
        try:
            [row] = _autoencoder_rows(replace(config, decoder_hidden=width),
                                      (train_ebn0_db,), lambda text: None)
        except (DivergenceError, DegenerateCodewordError) as exc:
            raise type(exc)(f"width {width}: {exc.reason}", step=exc.step,
                            model=exc.model) from exc
        system, _, train_db, link_for, seeds, key = row
        rows.append((system, f"ae-width{width}", train_db, link_for, seeds,
                     key))
    return _curves(rows, config, 1)


# -- channel-mismatch probe ---------------------------------------------------

def robustness_probe(params: nn.ModelParams, config: ExperimentConfig,
                     train_ebn0_db: float, seed: int, rhos=(0.5, 0.9),
                     include_rayleigh: bool = True, workers: int = 1) -> list:
    """Evaluate a model trained on the configured channel under
    correlated-noise and Rayleigh variants, side by side with its AWGN curve.

    All variants at one test point share one substream per chunk, so they
    see the same messages and rho = 0 reproduces the AWGN curve exactly.
    Rayleigh draws each tile's fades after its noise, so it shares the AWGN
    noise on a chunk's first tile only.
    """
    rate = float(config.rate)
    variants = [("ae-awgn", "awgn", 0.0)]
    variants += [(f"ae-corr-rho{rho:g}", "correlated_awgn", rho) for rho in rhos]
    if include_rayleigh:
        variants.append(("ae-rayleigh", "rayleigh", 0.0))
    rows = [("autoencoder", label, float(train_ebn0_db),
             lambda _, db, kind=kind, rho=rho: autoencoder_system(
                 params, channels.ChannelSpec(kind, db, rate, rho=rho)),
             (seed,), "robust") for label, kind, rho in variants]
    return _curves(rows, config, workers)


# -- emitters -----------------------------------------------------------------

SWEEP_CSV_HEADER = ("system,label,train_ebn0_db,test_ebn0_db,blocks,"
                    "block_errors,bler,ci_low,ci_high,seed_count")


def _field(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _csv(header: str, rows) -> str:
    """The CSV text of ``rows``: a float is written as its repr, an int or
    string as str, and None as an empty field."""
    lines = [header]
    lines += [",".join(map(_field, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _sweep_row(curve: BlerCurve, p: BlerPoint) -> tuple:
    return (curve.system, curve.label, curve.train_ebn0_db, p.test_ebn0_db,
            p.blocks, p.block_errors, p.bler, p.ci_low, p.ci_high,
            curve.seed_count)


def sweep_to_csv(curves) -> str:
    return _csv(SWEEP_CSV_HEADER,
                [_sweep_row(c, p) for c in curves for p in c.points])


_CLOSED_FORMS = {
    "hamming_hard": codecs.hamming_hard_bler_closed_form,
    "uncoded": codecs.uncoded_bpsk_bler_closed_form,
}


def baseline_to_csv(curves, channel_kind: str = "awgn") -> str:
    """Sweep schema plus a closed_form_bler column (empty where no closed
    form exists: MLD, and every curve off the ``awgn`` kind)."""
    closed_forms = _CLOSED_FORMS if channel_kind == "awgn" else {}
    rows = []
    for curve in curves:
        closed = closed_forms.get(curve.system)
        for p in curve.points:
            reference = None if closed is None else closed(p.test_ebn0_db)
            rows.append(_sweep_row(curve, p) + (reference,))
    return _csv(SWEEP_CSV_HEADER + ",closed_form_bler", rows)


def overlap_to_csv(rows) -> str:
    return _csv("test_ebn0_db,overlap_pct,kl_nats",
                ((r.test_ebn0_db, 100.0 * r.overlap, r.kl_nats) for r in rows))


def history_to_csv(history: TrainingHistory) -> str:
    return _csv("step,loss", zip(history.steps, history.losses))


PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot BLER curves from a sweep CSV (log BLER vs test Eb/N0)."""
import csv
import sys
from collections import OrderedDict

try:
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("plot_bler.py needs matplotlib, the optional 'plots' extra: "
             "pip install -e '.[plots]'")

path = sys.argv[1] if len(sys.argv) > 1 else "sweep.csv"
curves = OrderedDict()
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        curves.setdefault(row["label"], []).append(
            (float(row["test_ebn0_db"]), float(row["bler"]),
             float(row["ci_low"]), float(row["ci_high"])))

styles = ["o-", "s-", "^-", "v-", "d-", "x--", "+--", "*--", ".-", "p-"]
plt.figure(figsize=(7, 5))
for i, (label, pts) in enumerate(curves.items()):
    pts.sort()
    db = [p[0] for p in pts]
    bler = [max(p[1], 1e-7) for p in pts]
    plt.semilogy(db, bler, styles[i % len(styles)], label=label,
                 markersize=4)
plt.xlabel("test Eb/N0 (dB)")
plt.ylabel("block error rate")
plt.grid(True, which="both", alpha=0.3)
plt.legend(fontsize=8)
plt.tight_layout()
out = path.rsplit(".", 1)[0] + ".png"
plt.savefig(out, dpi=150)
print(f"wrote {out}")
'''

