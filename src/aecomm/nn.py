"""Minimal dense feedforward engine for the block autoencoder.

The transmitter embeds a message index as a one-hot vector, runs it through
two dense layers, and energy-normalizes the output so every codeword
satisfies ||x||^2 = n exactly.  The receiver runs the noisy observation
through two dense layers and a softmax over all messages.  Backpropagation
treats the channel as a pass-through (additive noise; the rayleigh fade
scales the gradient) and differentiates the normalization as a projection.

Everything is float64 and deterministic given a seed.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DegenerateCodewordError, DivergenceError
from .rng import substream

_NORM_FLOOR = 1e-12
# central-difference step and batch size of the gradient check
_FD_STEP = 1e-5
_GRADCHECK_BATCH = 8


@dataclass(frozen=True)
class NetworkLayout:
    """M messages, n channel uses and the decoder's hidden width, checked at
    construction.  They fix the layers: M→M ReLU and M→n linear in the
    encoder, n→width ReLU and width→M linear in the decoder."""

    message_count: int = 16
    channel_uses: int = 7
    decoder_hidden: int = 16

    def __post_init__(self):
        m = self.message_count
        if m < 1 or m & (m - 1):
            raise ConfigurationError(f"message_count {m} is not a power of two")
        for name in ("channel_uses", "decoder_hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def block_bits(self) -> int:
        return self.message_count.bit_length() - 1

    # cached: every ModelParams built over this layout reads it
    @cached_property
    def layers(self) -> tuple:
        """(offset, fan_in, fan_out, activation) per layer, encoder first.
        The layer's weight starts at ``offset`` in ``ModelParams.flat`` and
        its bias follows the weight."""
        m, n, w = self.message_count, self.channel_uses, self.decoder_hidden
        out, offset = [], 0
        for fan_in, fan_out, activation in ((m, m, "relu"), (m, n, "linear"),
                                            (n, w, "relu"), (w, m, "linear")):
            out.append((offset, fan_in, fan_out, activation))
            offset += fan_in * fan_out + fan_out
        return tuple(out)

    @cached_property
    def parameter_count(self) -> int:
        offset, fan_in, fan_out, _ = self.layers[-1]
        return offset + fan_in * fan_out + fan_out


class DenseLayer(NamedTuple):
    weight: np.ndarray  # ([models,] fan_in, fan_out)
    bias: np.ndarray  # ([models,] fan_out)
    activation: str


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Trainable state of the encoder/decoder pair: a layout and one float64
    vector ``flat`` in checkpoint order (encoder first; per layer the weight
    row-major, then the bias).  ``flat`` may also be a (models, P) stack, one
    model per row, which trains in lockstep; every array below then carries
    the same leading model axis.

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
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != size:
            raise ConfigurationError(
                f"flat has shape {self.flat.shape}; the layout needs ({size},) "
                f"or (models, {size})")
        lead, flat = self.flat.shape[:-1], self.flat
        layers = []
        for offset, fan_in, fan_out, activation in self.layout.layers:
            end = offset + fan_in * fan_out
            layers.append(DenseLayer(
                flat[..., offset:end].reshape(lead + (fan_in, fan_out)),
                flat[..., end:end + fan_out], activation))
        object.__setattr__(self, "encoder", tuple(layers[:2]))
        object.__setattr__(self, "decoder", tuple(layers[2:]))

    @property
    def message_count(self) -> int:
        return self.layout.message_count

    @property
    def channel_uses(self) -> int:
        return self.layout.channel_uses

    def copy(self) -> "ModelParams":
        return ModelParams(self.layout, self.flat.copy())


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
    """Returns (output, cache), the cache holding each layer's input and
    output for backprop.  ReLU runs in place: its output is positive exactly
    where its input is, so backprop's mask can read it.  On a model stack
    the output gains the leading model axis."""
    a = inputs
    cache = []
    for layer in layers:
        out = a @ layer.weight
        out += layer.bias if layer.bias.ndim == 1 else layer.bias[:, None]
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        cache.append((a, out))
        a = out
    return a, cache


class Workspace:
    """Arrays that the steps of a training run reuse, one per name: the
    step's messages and fades, of shape (models, batch), its noise, (models,
    batch, n), and the one-hot, the received words, each decoder layer's
    output and both backward ``W @ g`` products, each (models, m, n or width,
    batch).  No step then allocates a batch-sized temporary.  With 15 models
    each is up to half a megabyte, above the allocator's mmap threshold, so
    allocating them per step mapped, faulted in and unmapped about a
    megabyte every step."""

    def __init__(self):
        self._arrays = {}

    def array(self, name, shape, dtype=np.float64):
        """The array kept under ``name``, made anew when the shape or dtype
        differs; its contents are left from its last use."""
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def _forward_columns(layers, inputs, work):
    """_forward_stack on (models, width, batch) arrays kept in ``work``.  The
    batch runs along each row, so a per-sample reduction is an elementwise
    pass over a few contiguous rows instead of a short reduction per
    sample."""
    a = inputs
    cache = []
    for i, layer in enumerate(layers):
        shape = a.shape[:-2] + (layer.weight.shape[-1], a.shape[-1])
        out = np.matmul(layer.weight.mT, a, out=work.array(f"layer{i}", shape))
        out += layer.bias[..., None]
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        cache.append((a, out))
        a = out
    return a, cache


def _backward_columns(layers, cache, grad_out, grad_layers, work=None):
    """Backprop through a dense stack on (models, width, batch) arrays,
    writing each layer's (dW, db) into the arrays of ``grad_layers``.  A
    ReLU layer's mask multiplies the incoming gradient in place.  Returns
    the input gradient, kept in ``work``; without ``work`` (the encoder,
    whose input is the identity) it returns None and skips that product."""
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        a_in, out = cache[i]
        if layers[i].activation == "relu":
            g *= out > 0.0
        np.matmul(a_in, g.mT, out=grad_layers[i].weight)
        g.sum(axis=-1, out=grad_layers[i].bias)
        if i == 0 and work is None:
            return None
        g = np.matmul(layers[i].weight, g, out=None if work is None
                      else work.array(f"grad{i}", a_in.shape))
    return g


def _normalize_energy(z, n):
    # the sum np.linalg.norm computes, without its per-call checks
    norms = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    if (norms < _NORM_FLOOR).any():
        degenerate = (norms < _NORM_FLOOR).any(axis=(-2, -1))
        raise DegenerateCodewordError(
            "encoder output has (near-)zero norm; cannot energy-normalize",
            model=int(np.argmax(degenerate)))
    return np.sqrt(n) * z / norms, norms


@lru_cache
def _identity(m):
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=4)
def _sample_offsets(models, m, batch):
    """Flat index of (model, message 0, sample) in a (models, m, batch)
    array, per model and sample; cached, since a training run asks for the
    same one every step."""
    offsets = np.arange(models)[:, None] * (m * batch) + np.arange(batch)
    offsets.flags.writeable = False
    return offsets


def _encoder_forward(params: ModelParams):
    """The encoder on the M-row identity: (codebook, z, norms, cache)."""
    z, cache = _forward_stack(params.encoder, _identity(params.message_count))
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
    messages = np.asarray(messages)
    if messages.dtype.kind not in "iu":  # a cast would truncate 2.7 to 2
        raise ValueError(f"message indices must have an integer dtype, got "
                         f"{messages.dtype}")
    messages = messages.astype(np.int64, copy=False)
    if messages.shape[:-1] != params.flat.shape[:-1] or messages.size == 0:
        raise ValueError("batch must be a non-empty 1-D index array per model")
    if messages.min() < 0 or messages.max() >= params.message_count:
        raise ValueError("batch contains message indices out of range")
    return messages


def loss_given_disturbance(params, messages, noise, fade=None):
    """Mean cross-entropy for a fixed channel realization (no gradients).

    Shares the exact forward path with loss_and_gradients_given; used by the
    finite-difference gradient oracle.
    """
    loss, _ = _loss_core(params, messages, noise, fade, False, Workspace())
    return loss


def loss_and_gradients_given(params, messages, noise, fade=None, work=None):
    """Loss and exact gradients for a fixed (noise, fade) realization; the
    gradients are a ModelParams twin over a fresh vector.  A training loop
    passes one ``Workspace`` to all its steps as ``work``; by default each
    call uses its own.

    For one model the loss is a float.  For a (K, P) stack, messages (K,
    batch), noise (K, batch, n) and fade (K, batch) carry the same leading
    model axis and the losses come back as a (K,) array; each model's loss
    and gradients equal those of its own call bit for bit.  A numerical
    failure names the failing model's index as its ``model``.
    """
    return _loss_core(params, messages, noise, fade, True,
                      Workspace() if work is None else work)


def _loss_core(params, messages, noise, fade, want_grads, work):
    """One model runs as a stack of one.  The encoder runs once per model on
    the M-row identity, as in codebook(), and a one-hot product gathers the
    batch's codewords exactly.  The decoder, softmax and backprop run on
    (models, width, batch) arrays, and the codeword gradient is summed per
    message before it enters the normalization and the encoder, so those see
    M rows, not the batch."""
    if params.flat.ndim == 1:
        loss, grads = _loss_core(
            ModelParams(params.layout, params.flat[None]),
            np.asarray(messages)[None], np.asarray(noise)[None],
            None if fade is None else np.asarray(fade)[None], want_grads,
            work)
        return float(loss[0]), (
            None if grads is None else ModelParams(params.layout, grads.flat[0]))
    messages = _check_batch(params, messages)
    models, batch = messages.shape
    m, n = params.message_count, params.channel_uses

    picks = messages * batch  # flat index of each sample's message row
    picks += _sample_offsets(models, m, batch)
    onehot = work.array("onehot", (models, m, batch))
    onehot.fill(0.0)
    onehot.ravel()[picks] = 1.0

    cb, z, norms, enc_cache = _encoder_forward(params)
    y = np.matmul(cb.mT, onehot, out=work.array("y", (models, n, batch)))
    if fade is not None:
        y *= fade[:, None, :]
    y += noise.mT
    logits, dec_cache = _forward_columns(params.decoder, y, work)
    # the softmax overwrites the logits: the top layer is linear, so its
    # backward reads only its input
    probs = logits
    probs -= logits.max(axis=-2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore"):
        losses = -np.log(probs.ravel()[picks]).sum(axis=-1) / batch
    finite = np.isfinite(losses)
    if not finite.all():
        raise DivergenceError("non-finite loss", model=int(np.argmin(finite)))
    if not want_grads:
        return losses, None

    grads = ModelParams(params.layout, np.empty_like(params.flat))
    dlogits = probs  # in place: the loss no longer needs probs
    dlogits -= onehot
    dlogits /= batch
    dy = _backward_columns(params.decoder, dec_cache, dlogits, grads.decoder,
                           work)
    if fade is not None:
        dy *= fade[:, None, :]
    dx = onehot @ dy.mT
    # Energy normalization x = sqrt(n) z / ||z||: project out the radial part.
    radial = (z * dx).sum(axis=-1, keepdims=True)
    dz = np.sqrt(n) / norms * (dx - z * radial / norms**2)
    _backward_columns(params.encoder,
                      [(a.mT, out.mT) for a, out in enc_cache], dz.mT,
                      grads.encoder)
    return losses, grads


def finite_difference_gradients(params, messages, noise,
                                fade=None) -> ModelParams:
    """Central-difference gradients of the fixed-realization loss.

    Slow by construction: one loss pair per parameter entry.  This is the
    independent oracle for loss_and_gradients_given.
    """
    work = params.copy()
    grads = ModelParams(params.layout, np.zeros_like(params.flat))
    for i in range(work.flat.size):
        saved = work.flat[i]
        work.flat[i] = saved + _FD_STEP
        up = loss_given_disturbance(work, messages, noise, fade)
        work.flat[i] = saved - _FD_STEP
        down = loss_given_disturbance(work, messages, noise, fade)
        work.flat[i] = saved
        grads.flat[i] = (up - down) / (2.0 * _FD_STEP)
    return grads


def gradient_check_case(params, messages, noise, fade=None) -> float:
    """Worst relative error of backprop against central differences.

    Entries are compared at scale max(|analytic|, |numeric|, 1e-3 * gmax)
    where gmax is the largest gradient magnitude in the model, so entries
    near zero cannot inflate the ratio past finite-difference noise while
    any entry of consequential size is still checked individually.
    """
    _, analytic = loss_and_gradients_given(params, messages, noise, fade)
    numeric = finite_difference_gradients(params, messages, noise, fade)
    a, b = analytic.flat, numeric.flat
    gmax = max(np.abs(a).max(), np.abs(b).max())
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       max(1e-3 * gmax, 1e-12))
    return float((np.abs(a - b) / scale).max())


def gradient_check(seed: int = 0, cases: int = 10) -> float:
    """Max relative error over random configurations.

    Cases cycle through noise scales from zero upward, alternate plain
    additive noise with faded batches, and alternate two decoder widths.
    """
    rng = substream(seed, "gradcheck")
    sigmas = (0.0, 0.05, 0.2, 0.6, 1.0)
    worst = 0.0
    for case in range(cases):
        layout = NetworkLayout(decoder_hidden=16 if case % 2 == 0 else 12)
        params = init_params(layout, 1000 * seed + case)
        messages = rng.integers(0, params.message_count, _GRADCHECK_BATCH)
        noise = sigmas[case % len(sigmas)] * rng.standard_normal(
            (_GRADCHECK_BATCH, params.channel_uses))
        fade = None
        if case % 2 == 1:
            fade = rng.rayleigh(scale=np.sqrt(0.5), size=_GRADCHECK_BATCH)
        worst = max(worst, gradient_check_case(params, messages, noise, fade))
    return worst


@dataclass
class AdamState:
    """Adam accumulators, laid out like ``ModelParams.flat`` (one row per
    model on a stack)."""

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
        for name, value, high in (("learning_rate", learning_rate, np.inf),
                                  ("beta1", beta1, 1.0), ("beta2", beta2, 1.0),
                                  ("epsilon", epsilon, np.inf)):
            if not 0.0 < value < high:
                raise ConfigurationError(
                    f"{name} must be in (0, {high:g}), got {value}")
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), 0,
                   learning_rate, beta1, beta2, epsilon)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState):
    """One bias-corrected Adam update; returns (new_params, new_state) and
    leaves its inputs untouched.  Elementwise, so the models of a stack
    update exactly as they would alone."""
    if grads.layout != params.layout or grads.flat.shape != params.flat.shape:
        raise ConfigurationError("gradient layout does not match parameter layout")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    lr, eps = state.learning_rate, state.epsilon
    g = grads.flat
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # flat - lr m_hat / (sqrt(v_hat) + eps), each product and sum in that
    # order, built up in the fresh arrays that are returned
    m = b1 * state.first_moment
    m += (1.0 - b1) * g
    v = np.square(g)
    v *= 1.0 - b2
    v += b2 * state.second_moment
    update = m / (1.0 - b1**t)
    update *= lr
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += eps
    update /= denom
    return (ModelParams(params.layout, params.flat - update),
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
             layout.channel_uses, 2, 2]
    for _, fan_in, fan_out, activation in layout.layers:
        words += [fan_in, fan_out, _ACT_CODE[activation]]
    return CHECKPOINT_MAGIC + np.asarray(words, dtype="<u4").tobytes()


def checkpoint_bytes(params: ModelParams) -> bytes:
    """The checkpoint file's bytes for one model."""
    if params.flat.ndim != 1:
        raise ConfigurationError(
            f"one model per checkpoint; got a stack of {len(params.flat)}")
    return _header(params.layout) + params.flat.astype("<f8").tobytes()


def save_checkpoint(params: ModelParams, path):
    data = checkpoint_bytes(params)  # raises before the file is opened
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint.  The header must be the one its layout writes: two
    layers per stack, ReLU then linear, and M = 2^k; every fault names the
    file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"{path}: not a model checkpoint")
    try:
        # version, M, k, n, 2, 2, a row per layer; width is row 3's fan_out
        words = np.frombuffer(blob, dtype="<u4", count=18, offset=8)
        version, m, k, n = (int(v) for v in words[:4])
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {version}")
        layout = NetworkLayout(m, n, int(words[13]))
        if k != layout.block_bits:
            raise ConfigurationError(f"k={k} does not match M={m}")
        header = _header(layout)
        if blob[:len(header)] != header:
            raise ConfigurationError(
                "layer table is not a chain of two layers per stack, ReLU "
                "then linear")
        flat = np.frombuffer(blob, dtype="<f8", count=layout.parameter_count,
                             offset=len(header)).astype(np.float64)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path}: corrupt checkpoint ({exc})") from exc
    if len(header) + flat.nbytes != len(blob):
        raise ConfigurationError(f"{path}: trailing bytes in checkpoint")
    return ModelParams(layout, flat)
