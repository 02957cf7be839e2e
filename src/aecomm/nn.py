"""Minimal dense feedforward engine for the block autoencoder.

The transmitter embeds a message index as a one-hot vector, runs it through
two dense layers, and energy-normalizes the output so every codeword
satisfies ||x||^2 = n exactly.  The receiver runs the noisy observation
through two dense layers and a softmax over all messages.  The four layers
are written out, forward and backward.  Backpropagation treats the channel
as a pass-through (additive noise; the rayleigh fade scales the gradient)
and differentiates the normalization as a projection.  Training and the
gradient check work on a (models, P) stack of models, which Adam updates in
place.

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
        """(offset, fan_in, fan_out) per layer, encoder first, ReLU then
        linear in each stack.  The layer's weight starts at ``offset`` in
        ``ModelParams.flat`` and its bias follows the weight."""
        m, n, w = self.message_count, self.channel_uses, self.decoder_hidden
        out, offset = [], 0
        for fan_in, fan_out in ((m, m), (m, n), (n, w), (w, m)):
            out.append((offset, fan_in, fan_out))
            offset += fan_in * fan_out + fan_out
        return tuple(out)

    @cached_property
    def parameter_count(self) -> int:
        offset, fan_in, fan_out = self.layers[-1]
        return offset + fan_in * fan_out + fan_out


class DenseLayer(NamedTuple):
    weight: np.ndarray  # ([models,] fan_in, fan_out)
    bias: np.ndarray  # ([models,] fan_out)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Trainable state of the encoder/decoder pair: a layout and one float64
    vector ``flat`` in checkpoint order (encoder first; per layer the weight
    row-major, then the bias).  ``flat`` may also be a (models, P) stack, one
    model per row, and every array below then carries the same leading model
    axis; training and the gradient check take only a stack.

    ``encoder`` and ``decoder`` are tuples of DenseLayers whose arrays are
    views into ``flat``, derived from the layout; nothing can swap them out.
    ``adam_step`` writes a stack's ``flat`` in place, so the views follow
    each step.
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
        for offset, fan_in, fan_out in self.layout.layers:
            end = offset + fan_in * fan_out
            layers.append(DenseLayer(
                flat[..., offset:end].reshape(lead + (fan_in, fan_out)),
                flat[..., end:end + fan_out]))
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


class Workspace:
    """Arrays that the steps of a training run reuse, one per name: the
    step's messages and fades, of shape (models, batch), its noise, (models,
    batch, n), and ``onehot``, the received words ``y``, the decoder's
    ``hidden`` and ``logits`` and the gradients ``dhidden`` and ``dy``, each
    (models, m, n or width, batch).  No step then allocates a batch-sized
    temporary.  With 15 models each is up to half a megabyte, above the
    allocator's mmap threshold, so allocating them per step mapped, faulted
    in and unmapped about a megabyte every step."""

    def __init__(self):
        self._arrays = {}

    def array(self, name, shape, dtype=np.float64):
        """The array kept under ``name``, made anew when the shape or dtype
        differs; its contents are left from its last use."""
        a = self._arrays.get(name)
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a


def _normalize_energy(z, n):
    # the sum np.linalg.norm computes, without its per-call checks
    norms = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    if (norms < _NORM_FLOOR).any():
        degenerate = (norms < _NORM_FLOOR).any(axis=(-2, -1))
        raise DegenerateCodewordError(
            "encoder output has (near-)zero norm; cannot energy-normalize",
            model=int(np.argmax(degenerate)))
    return np.sqrt(n) * z / norms, norms


@lru_cache(maxsize=4)
def _sample_offsets(models, m, batch):
    """Flat index of (model, message 0, sample) in a (models, m, batch)
    array, per model and sample; cached, since a training run asks for the
    same one every step."""
    offsets = np.arange(models)[:, None] * (m * batch) + np.arange(batch)
    offsets.flags.writeable = False
    return offsets


def _encoder_forward(params: ModelParams):
    """The encoder on the M-row identity, whose product with W1 is W1:
    (codebook, z, norms, hidden).  ReLU runs in place; its output is positive
    exactly where its input is, so the backward mask can read it."""
    (w1, b1), (w2, b2) = params.encoder
    hidden = w1 + b1[..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    z = hidden @ w2
    z += b2[..., None, :]
    x, norms = _normalize_energy(z, params.channel_uses)
    return x, z, norms, hidden


def codebook(params: ModelParams) -> np.ndarray:
    """All M codewords, shape (M, n); rows satisfy ||x||^2 = n."""
    return _encoder_forward(params)[0]


def predict(params: ModelParams, received) -> np.ndarray:
    """Argmax message index of each (rows, n) received word, with a leading
    model axis on a stack; lowest index wins ties."""
    received = np.asarray(received, dtype=float)
    if received.ndim < 2 or received.shape[-1] != params.channel_uses:
        raise ValueError(f"expected (rows, {params.channel_uses}) received "
                         f"words, got shape {received.shape}")
    if not np.all(np.isfinite(received)):
        raise ValueError("decode input must be finite")
    # [..., None, :] lines a stack's (models, width) bias up with its
    # (models, rows, width) layer output
    (w3, b3), (w4, b4) = params.decoder
    hidden = received @ w3
    hidden += b3[..., None, :]
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ w4
    logits += b4[..., None, :]
    return np.argmax(logits, axis=-1)


def _check_batch(params, messages):
    if params.flat.ndim != 2:
        raise ValueError(
            f"params.flat has shape {params.flat.shape}; a loss takes a "
            f"(models, {params.layout.parameter_count}) stack")
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


def loss_and_gradients_given(params, messages, noise, fade=None, work=None):
    """Losses and exact gradients of a (K, P) stack for a fixed (noise,
    fade) realization; the gradients are a ModelParams twin over a fresh
    (K, P) array.  A training loop passes one ``Workspace`` to all its steps
    as ``work``; by default each call uses its own.

    Messages (K, batch), noise (K, batch, n) and fade (K, batch) carry the
    stack's model axis, and the losses come back as a (K,) array; each
    model's loss and gradients equal those of its stack of one bit for bit.
    A 1-D ``flat`` raises ValueError.  A numerical failure names the failing
    model's index as its ``model``.
    """
    return _loss_core(params, messages, noise, fade, True,
                      Workspace() if work is None else work)


def _loss_core(params, messages, noise, fade, want_grads, work):
    """The encoder runs once per model on the M-row identity, as in
    codebook(), and a one-hot product gathers the batch's codewords exactly.
    The decoder, softmax and backprop run on (models, width, batch) arrays,
    so a per-sample reduction is an elementwise pass over a few contiguous
    rows; ReLU runs in place and the backward mask reads its output.  The
    codeword gradient is summed per message before it enters the
    normalization and the encoder, so those see M rows, not the batch."""
    messages = _check_batch(params, messages)
    models, batch = messages.shape
    m, n = params.message_count, params.channel_uses

    picks = messages * batch  # flat index of each sample's message row
    picks += _sample_offsets(models, m, batch)
    onehot = work.array("onehot", (models, m, batch))
    onehot.fill(0.0)
    onehot.ravel()[picks] = 1.0

    cb, z, norms, enc_hidden = _encoder_forward(params)
    y = np.matmul(cb.mT, onehot, out=work.array("y", (models, n, batch)))
    if fade is not None:
        y *= fade[:, None, :]
    y += noise.mT
    (w3, b3), (w4, b4) = params.decoder
    hidden = np.matmul(w3.mT, y, out=work.array(
        "hidden", (models, w3.shape[-1], batch)))
    hidden += b3[..., None]
    np.maximum(hidden, 0.0, out=hidden)
    logits = np.matmul(w4.mT, hidden, out=work.array("logits", (models, m, batch)))
    logits += b4[..., None]
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
    (dw3, db3), (dw4, db4) = grads.decoder
    np.matmul(hidden, dlogits.mT, out=dw4)
    dlogits.sum(axis=-1, out=db4)
    dhidden = np.matmul(w4, dlogits, out=work.array("dhidden", hidden.shape))
    dhidden *= hidden > 0.0
    np.matmul(y, dhidden.mT, out=dw3)
    dhidden.sum(axis=-1, out=db3)
    dy = np.matmul(w3, dhidden, out=work.array("dy", y.shape))
    if fade is not None:
        dy *= fade[:, None, :]
    dx = onehot @ dy.mT
    # Energy normalization x = sqrt(n) z / ||z||: project out the radial part.
    radial = (z * dx).sum(axis=-1, keepdims=True)
    dz = np.sqrt(n) / norms * (dx - z * radial / norms**2)
    # the transposed views fix each sum's order, and so the trained bits;
    # the input is the identity, so dW1 is the hidden-layer gradient itself
    (dw1, db1), (dw2, db2) = grads.encoder
    np.matmul(enc_hidden.mT, dz, out=dw2)
    dz.mT.sum(axis=-1, out=db2)
    g = params.encoder[1].weight @ dz.mT
    g *= enc_hidden.mT > 0.0
    dw1[...] = g.mT
    g.sum(axis=-1, out=db1)
    return losses, grads


def finite_difference_gradients(params, messages, noise,
                                fade=None) -> ModelParams:
    """Central-difference gradients of a stack's fixed-realization losses.

    Slow by construction: one loss pair per parameter column, each on the
    gradient-free path, which writes every workspace array it reads.  A
    column's entry moves in every model at once, since no model's loss reads
    another's row.  This is the independent oracle for
    loss_and_gradients_given.
    """
    probe, work = params.copy(), Workspace()
    grads = ModelParams(params.layout, np.zeros_like(params.flat))
    for j in range(probe.flat.shape[-1]):
        saved = probe.flat[..., j].copy()
        probe.flat[..., j] = saved + _FD_STEP
        up, _ = _loss_core(probe, messages, noise, fade, False, work)
        probe.flat[..., j] = saved - _FD_STEP
        down, _ = _loss_core(probe, messages, noise, fade, False, work)
        probe.flat[..., j] = saved
        grads.flat[..., j] = (up - down) / (2.0 * _FD_STEP)
    return grads


def gradient_check_case(params, messages, noise, fade=None) -> float:
    """Worst relative error of backprop against central differences over
    the models of a stack.

    Entries are compared at scale max(|analytic|, |numeric|, 1e-3 * gmax)
    where gmax is the largest gradient magnitude in the entry's model, so
    entries near zero cannot inflate the ratio past finite-difference noise
    while any entry of consequential size is still checked individually.
    """
    _, analytic = loss_and_gradients_given(params, messages, noise, fade)
    numeric = finite_difference_gradients(params, messages, noise, fade)
    a, b = np.abs(analytic.flat), np.abs(numeric.flat)
    gmax = np.maximum(a.max(axis=-1), b.max(axis=-1))[:, None]
    scale = np.maximum(np.maximum(a, b), np.maximum(1e-3 * gmax, 1e-12))
    return float((np.abs(analytic.flat - numeric.flat) / scale).max())


def gradient_check(seed: int = 0, cases: int = 10) -> float:
    """Max relative error over random configurations.

    Cases cycle through noise scales from zero upward, alternate plain
    additive noise with faded batches, and alternate two decoder widths;
    each case checks a stack of one model.
    """
    rng = substream(seed, "gradcheck")
    sigmas = (0.0, 0.05, 0.2, 0.6, 1.0)
    worst = 0.0
    for case in range(cases):
        layout = NetworkLayout(decoder_hidden=16 if case % 2 == 0 else 12)
        params = ModelParams(layout,
                             init_params(layout, 1000 * seed + case).flat[None])
        messages = rng.integers(0, layout.message_count, (1, _GRADCHECK_BATCH))
        noise = sigmas[case % len(sigmas)] * rng.standard_normal(
            (1, _GRADCHECK_BATCH, layout.channel_uses))
        fade = None
        if case % 2 == 1:
            fade = rng.rayleigh(scale=np.sqrt(0.5), size=(1, _GRADCHECK_BATCH))
        worst = max(worst, gradient_check_case(params, messages, noise, fade))
    return worst


@dataclass
class AdamState:
    """Adam accumulators, laid out like ``ModelParams.flat`` (one row per
    model on a stack); ``adam_step`` updates them in place."""

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
    """One bias-corrected Adam update, in place: ``params.flat``, both
    moments and ``state.step`` take their new values.  Elementwise, so the
    models of a stack update exactly as they would alone."""
    if grads.layout != params.layout or grads.flat.shape != params.flat.shape:
        raise ConfigurationError("gradient layout does not match parameter layout")
    state.step += 1
    t, b1, b2 = state.step, state.beta1, state.beta2
    g, m, v = grads.flat, state.first_moment, state.second_moment
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # flat - lr m_hat / (sqrt(v_hat) + eps), each product and sum in that
    # order
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += np.square(g) * (1.0 - b2)
    update = m / (1.0 - b1**t)
    update *= state.learning_rate
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    update /= denom
    np.subtract(params.flat, update, out=params.flat)


# -- checkpoint file format ---------------------------------------------------
#
#   magic "AECOMMNN" | uint32 version=1 | uint32 M, k, n
#   uint32 encoder layer count | uint32 decoder layer count
#   per layer: uint32 fan_in, fan_out, activation (0=linear, 1=relu)
#   then ModelParams.flat: per layer in order (encoder first), weight
#   row-major, bias, as little-endian float64.  Round-trips bit-exactly.

CHECKPOINT_MAGIC = b"AECOMMNN"
CHECKPOINT_VERSION = 1


def _header(layout: NetworkLayout) -> bytes:
    words = [CHECKPOINT_VERSION, layout.message_count, layout.block_bits,
             layout.channel_uses, 2, 2]
    for i, (_, fan_in, fan_out) in enumerate(layout.layers):
        words += [fan_in, fan_out, 1 - i % 2]  # ReLU first in each stack
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
