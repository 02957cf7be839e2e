"""Minimal dense feedforward engine for the block autoencoder.

The transmitter embeds a message index as a one-hot vector, runs it through
dense layers, and energy-normalizes the output so every codeword satisfies
||x||^2 = n exactly.  The receiver runs the noisy observation through dense
layers and a softmax over all messages.  Backpropagation treats the channel
as a pass-through (additive noise; the rayleigh fade scales the gradient)
and differentiates the normalization as the projection it is.

Everything is float64 and deterministic given a seed.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DegenerateCodewordError, DivergenceError
from .rng import substream

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class NetworkLayout:
    """Full layer-size chains; first/last entries are pinned by M and n.

    Hidden layers are ReLU and each stack's last layer is linear, so the
    sizes fix the whole model.  Checked at construction.
    """

    message_count: int = 16
    channel_uses: int = 7
    encoder_sizes: tuple = (16, 16, 7)
    decoder_sizes: tuple = (7, 16, 16)

    def __post_init__(self):
        m, n = self.message_count, self.channel_uses
        if m < 1 or m & (m - 1):
            raise ConfigurationError(f"message_count {m} is not a power of two")
        for name, sizes, first, last in (
            ("encoder", self.encoder_sizes, m, n),
            ("decoder", self.decoder_sizes, n, m),
        ):
            if len(sizes) < 2:
                raise ConfigurationError(f"{name} has no layers")
            if any(s < 1 for s in sizes):
                raise ConfigurationError(
                    f"{name} layer sizes must be >= 1, got {tuple(sizes)}")
            if (sizes[0], sizes[-1]) != (first, last):
                raise ConfigurationError(
                    f"{name} sizes {tuple(sizes)} must run from {first} to "
                    f"{last}")

    @property
    def block_bits(self) -> int:
        return self.message_count.bit_length() - 1

    # cached: every ModelParams built over this layout reads both
    @cached_property
    def layers(self) -> tuple:
        """(fan_in, fan_out, activation) per layer, encoder first."""
        out = []
        for sizes in (self.encoder_sizes, self.decoder_sizes):
            last = len(sizes) - 2
            out += [(fan_in, fan_out, "relu" if i < last else "linear")
                    for i, (fan_in, fan_out)
                    in enumerate(zip(sizes[:-1], sizes[1:]))]
        return tuple(out)

    @cached_property
    def parameter_count(self) -> int:
        return sum(fan_in * fan_out + fan_out
                   for fan_in, fan_out, _ in self.layers)


def default_layout(message_count=16, channel_uses=7, decoder_hidden=None):
    hidden = message_count if decoder_hidden is None else decoder_hidden
    return NetworkLayout(
        message_count=message_count,
        channel_uses=channel_uses,
        encoder_sizes=(message_count, message_count, channel_uses),
        decoder_sizes=(channel_uses, hidden, message_count),
    )


class DenseLayer(NamedTuple):
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Trainable state of the encoder/decoder pair: a layout and one float64
    vector ``flat`` in checkpoint order (encoder first; per layer the weight
    row-major, then the bias).

    ``encoder`` and ``decoder`` are tuples of DenseLayers whose arrays are
    views into ``flat``, derived from the layout; nothing can swap them out.
    Treated as an immutable snapshot once training ends; update steps return
    fresh instances.
    """

    layout: NetworkLayout
    flat: np.ndarray = field(repr=False)
    encoder: tuple = field(init=False, repr=False)
    decoder: tuple = field(init=False, repr=False)

    def __post_init__(self):
        size = self.layout.parameter_count
        if self.flat.shape != (size,):
            raise ConfigurationError(
                f"flat has shape {self.flat.shape}; the layout needs ({size},)")
        layers, offset = [], 0
        for fan_in, fan_out, activation in self.layout.layers:
            end = offset + fan_in * fan_out
            layers.append(DenseLayer(
                self.flat[offset:end].reshape(fan_in, fan_out),
                self.flat[end:end + fan_out], activation))
            offset = end + fan_out
        n_enc = len(self.layout.encoder_sizes) - 1
        object.__setattr__(self, "encoder", tuple(layers[:n_enc]))
        object.__setattr__(self, "decoder", tuple(layers[n_enc:]))

    @property
    def message_count(self) -> int:
        return self.layout.message_count

    @property
    def channel_uses(self) -> int:
        return self.layout.channel_uses

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def init_params(layout: NetworkLayout, seed: int) -> ModelParams:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases.

    Weights are drawn layer by layer, encoder first; deterministic given seed.
    """
    params = ModelParams(layout, np.zeros(layout.parameter_count))
    rng = substream(seed, "model-init")
    for layer in params.encoder + params.decoder:
        fan_in = layer.weight.shape[0]
        layer.weight[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in),
                                       layer.weight.shape)
    return params


def _forward_stack(layers, inputs):
    """Returns (output, cache) with pre-activations kept for backprop."""
    a = inputs
    cache = []
    for layer in layers:
        pre = a @ layer.weight
        pre += layer.bias
        post = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        cache.append((a, pre))
        a = post
    return a, cache


def _forward_columns(layers, inputs):
    """_forward_stack on (width, batch) arrays.  The batch runs along each
    row, so a per-sample reduction is an elementwise pass over a few
    contiguous rows instead of a short reduction per sample."""
    a = inputs
    cache = []
    for layer in layers:
        pre = layer.weight.T @ a
        pre += layer.bias[:, None]
        post = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        cache.append((a, pre))
        a = post
    return a, cache


def _backward_columns(layers, cache, grad_out, grad_layers,
                      need_grad_in=True):
    """Backprop through a dense stack on (width, batch) arrays, writing each
    layer's (dW, db) into the arrays of ``grad_layers``; returns the input
    gradient, or None when ``need_grad_in`` is false."""
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        a_in, pre = cache[i]
        if layers[i].activation == "relu":
            g = g * (pre > 0.0)
        np.matmul(a_in, g.T, out=grad_layers[i].weight)
        g.sum(axis=1, out=grad_layers[i].bias)
        if i == 0 and not need_grad_in:
            return None
        g = layers[i].weight @ g
    return g


def _normalize_energy(z, n):
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(norms < _NORM_FLOOR):
        raise DegenerateCodewordError(
            "encoder output has (near-)zero norm; cannot energy-normalize"
        )
    return np.sqrt(n) * z / norms, norms


def _encoder_forward(params: ModelParams):
    """The encoder on the M-row identity: (codebook, z, norms, cache)."""
    z, cache = _forward_stack(params.encoder, np.eye(params.message_count))
    x, norms = _normalize_energy(z, params.channel_uses)
    return x, z, norms, cache


def codebook(params: ModelParams) -> np.ndarray:
    """All M codewords, shape (M, n); rows satisfy ||x||^2 = n."""
    return _encoder_forward(params)[0]


def predict(params: ModelParams, received) -> np.ndarray:
    """Argmax message index; accepts (n,) or (batch, n); lowest index wins
    ties."""
    received = np.asarray(received, dtype=float)
    if received.shape[-1] != params.channel_uses:
        raise ValueError(
            f"expected {params.channel_uses} channel values, got {received.shape}"
        )
    if not np.all(np.isfinite(received)):
        raise ValueError("decode input must be finite")
    logits, _ = _forward_stack(params.decoder, received)
    return np.argmax(logits, axis=-1)


def _check_batch(params, messages):
    messages = np.asarray(messages, dtype=np.int64)
    if messages.ndim != 1 or messages.size == 0:
        raise ValueError("batch must be a non-empty 1-D index array")
    if np.any((messages < 0) | (messages >= params.message_count)):
        raise ValueError("batch contains message indices out of range")
    return messages


def loss_given_disturbance(params, messages, noise, fade=None) -> float:
    """Mean cross-entropy for a fixed channel realization (no gradients).

    Shares the exact forward path with loss_and_gradients_given; used by the
    finite-difference gradient oracle.
    """
    loss, _ = _loss_core(params, messages, noise, fade, want_grads=False)
    return loss


def loss_and_gradients_given(params, messages, noise, fade=None):
    """Loss and exact gradients for a fixed (noise, fade) realization; the
    gradients are a ModelParams twin over a fresh vector."""
    return _loss_core(params, messages, noise, fade, want_grads=True)


def _loss_core(params, messages, noise, fade, want_grads):
    """The encoder runs once on the M-row identity, as in codebook(), and a
    one-hot product gathers the batch's codewords exactly.  The decoder,
    softmax and backprop run on (width, batch) arrays, and the codeword
    gradient is summed per message before it enters the normalization and
    the encoder, so those see M rows, not the batch."""
    messages = _check_batch(params, messages)
    batch = messages.size
    m, n = params.message_count, params.channel_uses

    cols = np.arange(batch)
    onehot = np.zeros((m, batch))
    onehot[messages, cols] = 1.0

    cb, z, norms, enc_cache = _encoder_forward(params)
    y = cb.T @ onehot
    if fade is not None:
        y *= fade
    y += noise.T
    logits, dec_cache = _forward_columns(params.decoder, y)
    probs = logits - logits.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    with np.errstate(divide="ignore"):
        loss = -float(np.log(probs[messages, cols]).sum()) / batch
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    if not want_grads:
        return loss, None

    grads = ModelParams(params.layout, np.empty_like(params.flat))
    dlogits = probs  # in place: the loss no longer needs probs
    dlogits -= onehot
    dlogits /= batch
    dy = _backward_columns(params.decoder, dec_cache, dlogits, grads.decoder)
    if fade is not None:
        dy *= fade
    dx = onehot @ dy.T
    # Energy normalization x = sqrt(n) z / ||z||: project out the radial part.
    radial = (z * dx).sum(axis=-1, keepdims=True)
    dz = np.sqrt(n) / norms * (dx - z * radial / norms**2)
    _backward_columns(params.encoder,
                      [(a.T, pre.T) for a, pre in enc_cache], dz.T,
                      grads.encoder, need_grad_in=False)
    return loss, grads


def finite_difference_gradients(params, messages, noise, fade=None,
                                step=1e-5) -> ModelParams:
    """Central-difference gradients of the fixed-realization loss.

    Slow by construction: one loss pair per parameter entry.  This is the
    independent oracle for loss_and_gradients_given.
    """
    work = params.copy()
    grads = ModelParams(params.layout, np.zeros_like(params.flat))
    for i in range(work.flat.size):
        saved = work.flat[i]
        work.flat[i] = saved + step
        up = loss_given_disturbance(work, messages, noise, fade)
        work.flat[i] = saved - step
        down = loss_given_disturbance(work, messages, noise, fade)
        work.flat[i] = saved
        grads.flat[i] = (up - down) / (2.0 * step)
    return grads


def gradient_check_case(params, messages, noise, fade=None,
                        step=1e-5) -> float:
    """Worst relative error of backprop against central differences.

    Entries are compared at scale max(|analytic|, |numeric|, 1e-3 * gmax)
    where gmax is the largest gradient magnitude in the model, so entries
    near zero cannot inflate the ratio past finite-difference noise while
    any entry of consequential size is still checked individually.
    """
    _, analytic = loss_and_gradients_given(params, messages, noise, fade)
    numeric = finite_difference_gradients(params, messages, noise, fade, step)
    a, b = analytic.flat, numeric.flat
    gmax = max(np.abs(a).max(), np.abs(b).max())
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       max(1e-3 * gmax, 1e-12))
    return float((np.abs(a - b) / scale).max())


def gradient_check(seed: int = 0, cases: int = 10, batch_size: int = 8,
                   step: float = 1e-5) -> float:
    """Max relative error over random configurations.

    Cases cycle through noise scales from zero upward, alternate plain
    additive noise with faded batches, and alternate two decoder widths.
    """
    rng = substream(seed, "gradcheck")
    sigmas = (0.0, 0.05, 0.2, 0.6, 1.0)
    worst = 0.0
    for case in range(cases):
        layout = default_layout(decoder_hidden=16 if case % 2 == 0 else 12)
        params = init_params(layout, 1000 * seed + case)
        messages = rng.integers(0, params.message_count, batch_size)
        noise = sigmas[case % len(sigmas)] * rng.standard_normal(
            (batch_size, params.channel_uses))
        fade = None
        if case % 2 == 1:
            fade = rng.rayleigh(scale=np.sqrt(0.5), size=batch_size)
        worst = max(worst,
                    gradient_check_case(params, messages, noise, fade, step))
    return worst


@dataclass
class AdamState:
    """Adam accumulators, laid out like ``ModelParams.flat``."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                   epsilon=1e-8):
        for name, value in (("learning_rate", learning_rate), ("beta1", beta1),
                            ("beta2", beta2), ("epsilon", epsilon)):
            if not value > 0.0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), 0,
                   learning_rate, beta1, beta2, epsilon)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState):
    """One bias-corrected Adam update; returns (new_params, new_state) and
    leaves its inputs untouched."""
    if grads.layout != params.layout:
        raise ConfigurationError("gradient layout does not match parameter layout")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    lr, eps = state.learning_rate, state.epsilon
    g = grads.flat
    m = b1 * state.first_moment + (1.0 - b1) * g
    v = b2 * state.second_moment + (1.0 - b2) * g**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new_flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    return (ModelParams(params.layout, new_flat),
            AdamState(m, v, t, lr, b1, b2, eps))


# -- checkpoint file format ---------------------------------------------------
#
#   magic "AECOMMNN" | uint32 version=1 | uint32 M, k, n
#   uint32 encoder layer count | uint32 decoder layer count
#   per layer: uint32 fan_in, fan_out, activation (0=linear, 1=relu)
#   then ModelParams.flat: per layer in order (encoder first), weight
#   row-major, bias, as little-endian float64.  Round-trips bit-exactly.

CHECKPOINT_MAGIC = b"AECOMMNN"
CHECKPOINT_VERSION = 1
_ACT_CODE = {"linear": 0, "relu": 1}


def _header(layout: NetworkLayout) -> bytes:
    words = [CHECKPOINT_VERSION, layout.message_count, layout.block_bits,
             layout.channel_uses, len(layout.encoder_sizes) - 1,
             len(layout.decoder_sizes) - 1]
    for fan_in, fan_out, activation in layout.layers:
        words += [fan_in, fan_out, _ACT_CODE[activation]]
    return CHECKPOINT_MAGIC + np.asarray(words, dtype="<u4").tobytes()


def save_checkpoint(params: ModelParams, path):
    with open(path, "wb") as fh:
        fh.write(_header(params.layout) + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint.  The header must be the one its layout writes: a
    chain of layer sizes, ReLU hidden layers, linear output layers and
    M = 2^k; every fault names the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"{path}: not a model checkpoint")

    def chain(rows):
        return tuple(rows[:1, 0].tolist() + rows[:, 1].tolist())

    try:
        fields = np.frombuffer(blob, dtype="<u4", count=6, offset=8)
        version, m, k, n, n_enc, n_dec = (int(v) for v in fields)
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {version}")
        table = np.frombuffer(blob, dtype="<u4", count=3 * (n_enc + n_dec),
                              offset=32).reshape(-1, 3)
        layout = NetworkLayout(m, n, chain(table[:n_enc]),
                               chain(table[n_enc:]))
        if k != layout.block_bits:
            raise ConfigurationError(f"k={k} does not match M={m}")
        header = _header(layout)
        if blob[:len(header)] != header:
            raise ConfigurationError(
                "layer table is not a chain of ReLU hidden layers and a "
                "linear output layer per stack")
        flat = np.frombuffer(blob, dtype="<f8", count=layout.parameter_count,
                             offset=len(header)).astype(np.float64)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path}: corrupt checkpoint ({exc})") from exc
    if len(header) + flat.nbytes != len(blob):
        raise ConfigurationError(f"{path}: trailing bytes in checkpoint")
    return ModelParams(layout, flat)
