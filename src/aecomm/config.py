"""Experiment configuration: the single source of reproducibility.

Config files are sectioned ``key = value`` text:

    # comment
    [section]
    key = value

``ExperimentConfig`` is the file's schema: each field names its section and
file key, and its annotation fixes how the value is parsed, type-checked and
written back (a NumPy number as a plain one).  Unknown sections or keys are
hard errors with line numbers; an empty file yields the full defaults
(committed as ``configs/reference.cfg``).  A ``tuple[T, ...]`` is a
comma-separated list; the code rate is written as k/n in lowest terms
(``4/7``), which fixes block_bits = k and channel_uses = n.
"""

import numbers
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import get_args, get_origin

import numpy as np

from .channels import CHANNEL_KINDS, ChannelSpec
from .errors import ConfigFileError, ConfigurationError

# the reference grid has 25 points; the bound turns a mistyped step into an
# error instead of an array too large to allocate or a run without end
MAX_TEST_POINTS = 10_000


def db_key(db: float) -> str:
    """How substream keys and labels name an Eb/N0: 6 significant digits."""
    return format(float(db), "g")


def _shared_key(values) -> str:
    """Names the first two ``values`` that ``db_key`` names alike, if any."""
    seen = {}
    for value in map(float, values):
        key = db_key(value)
        if key in seen:
            return f"{seen[key]!r} and {value!r} share the key {key!r}"
        seen[key] = value
    return ""


def _key(section, default, key=None):
    """A field written as ``key`` (its own name by default) in [section]."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    channel_kind: str = _key("channel", "awgn", "kind")
    rate: Fraction = _key("channel", Fraction(4, 7))
    rho: float = _key("channel", 0.0)
    learning_rate: float = _key("training", 1e-3)
    beta1: float = _key("training", 0.9)
    beta2: float = _key("training", 0.999)
    epsilon: float = _key("training", 1e-8)
    batch_size: int = _key("training", 256)
    steps: int = _key("training", 10000)
    loss_log_interval: int = _key("training", 100)
    decoder_hidden: int = _key("training", 16)
    train_ebn0_db: tuple[float, ...] = _key("sweep", (-4.0, 0.0, 5.0, 7.0, 8.0))
    test_ebn0_start: float = _key("sweep", -4.0)
    test_ebn0_stop: float = _key("sweep", 8.0)
    test_ebn0_step: float = _key("sweep", 0.5)
    target_block_errors: int = _key("sweep", 200)
    max_blocks: int = _key("sweep", 1_000_000)
    seeds: tuple[int, ...] = _key("seeds", (0, 1, 2))

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        def require(cond, key, text):
            if not cond:
                raise ConfigurationError(f"{key}: {text}", key=key)

        # True is an Integral, but no size or seed; a Fraction is a Real, but
        # a float field's snapshot would round it to another value
        def typed(value, kind):
            return isinstance(value, kind) and (
                kind is Fraction or not isinstance(value, (bool, Fraction)))

        # types first: a config built in code skips the file parsers, and a
        # float size or seed would fail deep in a run or truncate silently
        for f in fields(self):
            (_, kind, text, plural, _), many = _type(f)
            value = getattr(self, f.name)
            if many:
                require(isinstance(value, tuple), f.name,
                        f"must be a tuple, got {value!r}")
                require(all(typed(v, kind) for v in value), f.name,
                        f"entries must be {plural}")
            elif kind is not None:
                require(typed(value, kind), f.name, f"must be {text}, got {value!r}")
        require(self.channel_kind in CHANNEL_KINDS, "kind",
                f"must be one of {CHANNEL_KINDS}")
        require(0 < self.rate <= 1, "rate", f"must be in (0, 1], got {self.rate}")
        require(0.0 <= self.rho < 1.0, "rho", f"must be in [0, 1), got {self.rho}")
        require(self.learning_rate > 0, "learning_rate", "must be positive")
        require(0 < self.beta1 < 1, "beta1", "must be in (0, 1)")
        require(0 < self.beta2 < 1, "beta2", "must be in (0, 1)")
        require(self.epsilon > 0, "epsilon", "must be positive")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.steps >= 0, "steps", "must be >= 0")
        require(self.loss_log_interval >= 1, "loss_log_interval", "must be >= 1")
        require(self.decoder_hidden >= 1, "decoder_hidden", "must be >= 1")
        require(len(self.train_ebn0_db) > 0, "train_ebn0_db", "must be non-empty")
        require(all(np.isfinite(v) for v in self.train_ebn0_db), "train_ebn0_db",
                "entries must be finite")
        require(len(set(self.train_ebn0_db)) == len(self.train_ebn0_db),
                "train_ebn0_db", "entries must not repeat")
        # points with one key would train or test on one draw under one label
        shared = _shared_key(self.train_ebn0_db)
        require(not shared, "train_ebn0_db", f"entries {shared}")
        for key in ("test_ebn0_start", "test_ebn0_stop", "test_ebn0_step"):
            require(np.isfinite(getattr(self, key)), key, "must be finite")
        require(self.test_ebn0_step > 0, "test_ebn0_step", "must be positive")
        require(self.test_ebn0_start <= self.test_ebn0_stop, "test_ebn0_start",
                "must not exceed test_ebn0_stop")
        require(self._test_steps() < MAX_TEST_POINTS, "test_ebn0_step",
                f"gives more than {MAX_TEST_POINTS} test points")
        shared = _shared_key(self.test_grid())
        require(not shared, "test_ebn0_step", f"test points {shared}")
        require(self.target_block_errors >= 1, "target_block_errors", "must be >= 1")
        require(self.max_blocks >= 1, "max_blocks", "must be >= 1")
        require(len(self.seeds) > 0, "seeds", "must be non-empty")
        # a repeated seed repeats the same draws, so pooling it would narrow
        # the interval without new evidence
        require(len(set(self.seeds)) == len(self.seeds), "seeds",
                "entries must not repeat")
        # substream keys are taken modulo 2**64, so seeds outside that range
        # would alias seeds inside it
        require(all(0 <= s < 2**64 for s in self.seeds), "seeds",
                "entries must be in [0, 2**64)")
        return self

    # -- derived quantities ---------------------------------------------------

    @property
    def block_bits(self) -> int:
        return self.rate.numerator

    @property
    def channel_uses(self) -> int:
        return self.rate.denominator

    @property
    def message_count(self) -> int:
        return 2**self.block_bits

    def _test_steps(self) -> float:
        # steps from start to stop plus a small slack, so that its floor keeps
        # an exact multiple but the grid never runs past the stop value
        span = (self.test_ebn0_stop - self.test_ebn0_start) / self.test_ebn0_step
        return span + 1e-9

    def test_grid(self) -> np.ndarray:
        count = int(np.floor(self._test_steps())) + 1
        return self.test_ebn0_start + self.test_ebn0_step * np.arange(count)

    def channel_spec(self, ebn0_db: float) -> ChannelSpec:
        return ChannelSpec(self.channel_kind, ebn0_db, float(self.rate), self.rho)


# -- file format --------------------------------------------------------------

def _parse_float(text):
    value = float(text)
    if np.isnan(value):
        raise ValueError("must not be NaN")
    return value


def _parse_int(text):
    return int(text, 10)


def _parse_rate(text):
    # k and n are the rate's numerator and denominator, so a value Fraction
    # would reduce (4/8, 0.5) is rejected rather than run at another size
    rate = Fraction(text)
    if text not in (f"{rate.numerator}/{rate.denominator}", str(rate)):
        raise ValueError(
            f"reads as k={rate.numerator}, n={rate.denominator}; write the "
            f"rate as k/n in lowest terms")
    return rate


# per declared type: the file parser; what a config built in code may hold
# (NumPy numbers pass, bools do not; None: unchecked), named for one value
# and for entries; and the snapshot text, which follows the declared type,
# not the value's class, so that a NumPy number is written as a plain one
_TYPES = {
    int: (_parse_int, numbers.Integral, "an integer", "integers",
          lambda v: str(int(v))),
    float: (_parse_float, numbers.Real, "a real number", "real numbers",
            lambda v: repr(float(v))),
    Fraction: (_parse_rate, Fraction, "a Fraction", "Fractions",
               lambda v: f"{v.numerator}/{v.denominator}"),
    str: (str, None, "", "", str),
}


def _type(f):
    """A field's entry type from ``_TYPES``, and whether the field is a
    ``tuple[entry, ...]``: a comma-separated list in the file."""
    many = get_origin(f.type) is tuple
    return _TYPES[get_args(f.type)[0] if many else f.type], many


# section -> file key -> field, in declaration order
_SCHEMA = {}
for _f in fields(ExperimentConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f


def loads_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown sections/keys and bad or invalid values are
    errors carrying the offending line number (none for a key left at its
    default)."""
    values = {}
    key_lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigFileError(
                    f"unknown section [{section}]; expected one of "
                    f"{sorted(_SCHEMA)}", line=lineno)
            continue
        if "=" not in line:
            raise ConfigFileError(f"expected 'key = value', got {line!r}",
                                  line=lineno)
        if section is None:
            raise ConfigFileError("key outside any [section]", line=lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SCHEMA[section]:
            raise ConfigFileError(
                f"unknown key {key!r} in section [{section}]", line=lineno)
        f = _SCHEMA[section][key]
        (parse, *_), many = _type(f)
        try:
            parsed = (tuple(parse(t.strip()) for t in value_text.split(",")
                            if t.strip()) if many else parse(value_text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigFileError(
                f"bad value for {key!r}: {value_text!r} ({exc})", line=lineno
            ) from exc
        if f.name in values:
            raise ConfigFileError(f"duplicate key {key!r}", line=lineno)
        values[f.name] = parsed
        key_lines[key] = lineno

    try:
        return ExperimentConfig(**values)
    except ConfigurationError as exc:
        raise ConfigFileError(str(exc), line=key_lines.get(exc.key)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    try:
        return loads_config(text)
    except ConfigFileError as exc:
        raise ConfigFileError(exc.reason, line=exc.line, path=path) from None


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; round-trips through loads_config exactly."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, f in keys.items():
            (*_, text), many = _type(f)
            value = getattr(config, f.name)
            lines.append(f"{key} = " + (", ".join(map(text, value)) if many
                                        else text(value)))
        lines.append("")
    return "\n".join(lines)


def save_config(config: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
