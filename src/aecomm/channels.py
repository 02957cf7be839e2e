"""Channel models: AWGN, correlated AWGN, and Rayleigh block fading.

The noise level is always derived from Eb/N0 and the code rate: with unit
average energy per channel use, the per-dimension noise variance is

    sigma^2 = 1 / (2 * R * 10^(ebn0_db / 10))

so the received vector is y ~ N(x, sigma^2 I) on the plain AWGN channel.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError

CHANNEL_KINDS = ("awgn", "correlated_awgn", "rayleigh")

# Rayleigh scale giving the fade unit second moment: E[h^2] = 2*scale^2 = 1.
_RAYLEIGH_SCALE = 1.0 / np.sqrt(2.0)


def noise_variance(ebn0_db: float, rate: float) -> float:
    """Per-dimension noise variance for a given Eb/N0 (dB) and code rate.

    ``ebn0_db = +inf`` is the documented zero-noise sentinel and yields 0.
    Any other value must give a positive, finite variance (none beyond about
    +-3,080 dB at rate 4/7 does); Python floats keep a NumPy value's bits.
    """
    if not rate > 0.0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    ebn0_db, rate = float(ebn0_db), float(rate)
    if ebn0_db == math.inf:
        return 0.0
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except ArithmeticError:  # 10^(dB/10) overflows, or underflows to 0
        sigma2 = 0.0
    if not 0.0 < sigma2 < math.inf:  # also NaN and -inf
        raise ConfigurationError(f"Eb/N0 {ebn0_db:g} dB gives no positive, "
                                 f"finite noise variance at rate {rate:g}")
    return sigma2


@dataclass(frozen=True)
class ChannelSpec:
    """One channel configuration: kind, operating point, rate, and the
    correlated kind's rho.  The rayleigh fade is one scalar per block."""

    kind: str = "awgn"
    ebn0_db: float = 7.0
    rate: float = 4.0 / 7.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigurationError(
                f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1], got {self.rate}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {self.rho}")
        if self.rho and self.kind != "correlated_awgn":
            raise ConfigurationError(
                f"rho must be 0 unless kind is correlated_awgn, got {self.rho}")
        self.sigma2  # computed on construction, so a bad Eb/N0 fails here

    @cached_property
    def sigma2(self) -> float:
        return noise_variance(self.ebn0_db, self.rate)


@lru_cache(maxsize=256)
def correlation_factor(rho: float, n: int, sigma2: float) -> np.ndarray:
    """Lower-triangular factor L with L L^T = sigma^2 * T(rho), T = [rho^|i-j|],
    and zero at sigma^2 = 0; computed once per arguments, read-only."""
    lags = np.arange(n)
    toeplitz = rho ** np.abs(lags[:, None] - lags[None, :])
    try:
        factor = (np.zeros((n, n)) if sigma2 == 0.0
                  else np.linalg.cholesky(sigma2 * toeplitz))
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"correlation matrix not factorizable (rho={rho})"
        ) from exc
    factor.flags.writeable = False
    return factor


def _shape_noise(spec: ChannelSpec, normals: np.ndarray, out):
    """``spec``'s noise from standard normals, written into ``out`` (a new
    array when None): ``normals * sigma`` on awgn and rayleigh, ``normals @
    L.T`` on correlated noise."""
    if spec.kind == "correlated_awgn":
        factor = correlation_factor(spec.rho, normals.shape[-1], spec.sigma2)
        return np.matmul(normals, factor.T, out=out)
    return np.multiply(normals, np.sqrt(spec.sigma2), out=out)


def _draw_fade(spec: ChannelSpec, shape, rng: np.random.Generator):
    """One rayleigh fade per block of ``shape``; None on the other kinds."""
    if spec.kind != "rayleigh":
        return None
    return rng.rayleigh(_RAYLEIGH_SCALE, size=shape[:-1])


def draw_disturbance(spec: ChannelSpec, shape, rng: np.random.Generator):
    """Sample the channel disturbance for a batch of codewords.

    ``shape`` is the codeword-batch shape, last axis = channel uses.  Returns
    ``(noise, fade)`` with ``fade`` None except for the rayleigh kind, where
    it is one positive scalar per block (leading axes of ``shape``).

    The additive noise is always drawn before the fade, so two channels that
    share an rng substream see identical noise realizations regardless of
    whether fading is applied on top.
    """
    shape = tuple(shape)
    normals = rng.standard_normal(shape)
    # scaled in place; the correlated product needs an array of its own
    noise = _shape_noise(spec, normals,
                         None if spec.kind == "correlated_awgn" else normals)
    return noise, _draw_fade(spec, shape, rng)


def draw_shared_disturbance(specs, rng: np.random.Generator, out):
    """One disturbance draw shared by several specs of one kind.

    ``out`` has one row of the codeword-batch shape per spec.  The standard
    normals are drawn once, then the rayleigh fades, and spec k's noise is
    written into ``out[k]``: exactly the noise that
    ``draw_disturbance(specs[k], shape, rng)`` gives on a clone of ``rng``.
    Returns the fades, shared by every spec, or None off the rayleigh kind.
    """
    kinds = {spec.kind for spec in specs}
    if len(kinds) != 1 or len(out) != len(specs):
        raise ValueError(f"a shared draw needs one kind and one output per "
                         f"spec; got kinds {sorted(kinds)} and {len(out)} "
                         f"outputs for {len(specs)} specs")
    shape = out[0].shape
    normals = rng.standard_normal(shape)
    for spec, noise in zip(specs, out):
        _shape_noise(spec, normals, noise)
    return _draw_fade(specs[0], shape, rng)


def transmit(spec: ChannelSpec, x: np.ndarray, rng: np.random.Generator):
    """Pass codewords through the channel and return the received words.

    ``x`` has shape (n,) or (batch, n).  On the rayleigh kind y = fade * x +
    noise with one fade per block; the receiver is not given the fade.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("transmit input must be finite")
    noise, fade = draw_disturbance(spec, x.shape, rng)
    if fade is None:
        noise += x  # the fresh noise buffer becomes y; x is left untouched
        return noise
    return fade[..., None] * x + noise

