"""Experiment configuration: the single source of reproducibility.

Config files are sectioned ``key = value`` text:

    # comment
    [section]
    key = value

Sections are ``channel``, ``training``, ``sweep``, and ``seeds``.  Unknown
sections or keys are hard errors with line numbers; an empty file yields
the full defaults (committed as ``configs/reference.cfg``).  Lists are
comma-separated; the code rate is written as k/n in lowest terms (``4/7``),
which fixes block_bits = k and channel_uses = n.
"""

import numbers
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .channels import CHANNEL_KINDS, ChannelSpec
from .errors import ConfigFileError, ConfigurationError

# the reference grid has 25 points; the bound turns a mistyped step into an
# error instead of an array too large to allocate or a run without end
MAX_TEST_POINTS = 10_000

# what each field's annotation admits: NumPy numbers pass, bools do not
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"),
          Fraction: (Fraction, "a Fraction")}


@dataclass(frozen=True)
class ExperimentConfig:
    # [channel]
    channel_kind: str = "awgn"
    rate: Fraction = Fraction(4, 7)
    rho: float = 0.0
    # [training]
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 256
    steps: int = 10000
    loss_log_interval: int = 100
    decoder_hidden: int = 16
    # [sweep]
    train_ebn0_db: tuple = (-4.0, 0.0, 5.0, 7.0, 8.0)
    test_ebn0_start: float = -4.0
    test_ebn0_stop: float = 8.0
    test_ebn0_step: float = 0.5
    target_block_errors: int = 200
    max_blocks: int = 1_000_000
    # [seeds]
    seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        def require(cond, key, text):
            if not cond:
                raise ConfigurationError(f"{key}: {text}", key=key)

        def typed(value, kind):  # True is an Integral, but no size or seed
            return isinstance(value, kind) and not isinstance(value, bool)

        # types first: a config built in code skips the file parsers, and a
        # float size or seed would fail deep in a run or truncate silently
        for f in (f for f in fields(self) if f.type in _KINDS):
            (kind, text), value = _KINDS[f.type], getattr(self, f.name)
            require(typed(value, kind), f.name, f"must be {text}, got {value!r}")
        require(all(typed(s, numbers.Integral) for s in self.seeds), "seeds",
                "entries must be integers")
        require(all(typed(v, numbers.Real) for v in self.train_ebn0_db),
                "train_ebn0_db", "entries must be real numbers")
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
        for key in ("test_ebn0_start", "test_ebn0_stop", "test_ebn0_step"):
            require(np.isfinite(getattr(self, key)), key, "must be finite")
        require(self.test_ebn0_step > 0, "test_ebn0_step", "must be positive")
        require(self.test_ebn0_start <= self.test_ebn0_stop, "test_ebn0_start",
                "must not exceed test_ebn0_stop")
        require(self._test_steps() < MAX_TEST_POINTS, "test_ebn0_step",
                f"gives more than {MAX_TEST_POINTS} test points")
        require(self.target_block_errors >= 1, "target_block_errors", "must be >= 1")
        require(self.max_blocks >= 1, "max_blocks", "must be >= 1")
        require(len(self.seeds) > 0, "seeds", "must be non-empty")
        # a repeated seed repeats the same draws, so pooling it would narrow
        # the interval without new evidence
        require(len(set(self.seeds)) == len(self.seeds), "seeds",
                "entries must not repeat")
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


def _parse_float_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_float(t) for t in items)


def _parse_int_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(_parse_int(t) for t in items)


_SCHEMA = {
    "channel": {
        "kind": ("channel_kind", str),
        "rate": ("rate", _parse_rate),
        "rho": ("rho", _parse_float),
    },
    "training": {
        "learning_rate": ("learning_rate", _parse_float),
        "beta1": ("beta1", _parse_float),
        "beta2": ("beta2", _parse_float),
        "epsilon": ("epsilon", _parse_float),
        "batch_size": ("batch_size", _parse_int),
        "steps": ("steps", _parse_int),
        "loss_log_interval": ("loss_log_interval", _parse_int),
        "decoder_hidden": ("decoder_hidden", _parse_int),
    },
    "sweep": {
        "train_ebn0_db": ("train_ebn0_db", _parse_float_list),
        "test_ebn0_start": ("test_ebn0_start", _parse_float),
        "test_ebn0_stop": ("test_ebn0_stop", _parse_float),
        "test_ebn0_step": ("test_ebn0_step", _parse_float),
        "target_block_errors": ("target_block_errors", _parse_int),
        "max_blocks": ("max_blocks", _parse_int),
    },
    "seeds": {
        "seeds": ("seeds", _parse_int_list),
    },
}


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
        attr, parse = _SCHEMA[section][key]
        try:
            parsed = parse(value_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigFileError(
                f"bad value for {key!r}: {value_text!r} ({exc})", line=lineno
            ) from exc
        if attr in values:
            raise ConfigFileError(f"duplicate key {key!r}", line=lineno)
        values[attr] = parsed
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
    def fmt(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, tuple):
            return ", ".join(fmt(v) for v in value)
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            lines.append(f"{key} = {fmt(getattr(config, attr))}")
        lines.append("")
    return "\n".join(lines)


def save_config(config: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
