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

import numpy as np

from .errors import ConfigurationError, DegenerateCodewordError, DivergenceError
from .rng import substream

ACTIVATIONS = ("relu", "linear")

_NORM_FLOOR = 1e-12


@dataclass
class DenseLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str


def _layers_over(flat, specs):
    """DenseLayers whose weight (row-major), then bias, are consecutive views
    into ``flat``; ``specs`` lists (fan_in, fan_out, activation) per layer."""
    layers, offset = [], 0
    for fan_in, fan_out, activation in specs:
        end = offset + fan_in * fan_out
        layers.append(DenseLayer(flat[offset:end].reshape(fan_in, fan_out),
                                 flat[end:end + fan_out], activation))
        offset = end + fan_out
    return layers


@dataclass
class ModelParams:
    """Trainable state of the encoder/decoder pair.

    All weights and biases live in one float64 vector ``flat`` in checkpoint
    order (encoder first; per layer the weight row-major, then the bias), and
    every layer array is a view into it; ``validate()`` packs layers given
    without it, or swapped in later.  Treated as an immutable snapshot once
    training ends; update steps return fresh instances.
    """

    encoder: list = field(default_factory=list)
    decoder: list = field(default_factory=list)
    message_count: int = 16
    block_bits: int = 4
    channel_uses: int = 7
    flat: np.ndarray = field(default=None, repr=False)

    def with_flat(self, flat) -> "ModelParams":
        """A twin of this model (same layer shapes) over the vector ``flat``."""
        layers = _layers_over(flat, [(*l.weight.shape, l.activation)
                                     for l in self.encoder + self.decoder])
        n_enc = len(self.encoder)
        return ModelParams(layers[:n_enc], layers[n_enc:], self.message_count,
                           self.block_bits, self.channel_uses, flat)

    def validate(self):
        """Check the layer chains; unless every layer array is already a view
        into ``flat``, copy them all into a fresh ``flat`` and rebind them."""
        m, n = self.message_count, self.channel_uses
        if m != 2**self.block_bits:
            raise ConfigurationError(
                f"message_count {m} is not 2^block_bits (k={self.block_bits})"
            )
        for name, stack, w_in, w_out in (
            ("encoder", self.encoder, m, n),
            ("decoder", self.decoder, n, m),
        ):
            if not stack:
                raise ConfigurationError(f"{name} has no layers")
            width = w_in
            for i, layer in enumerate(stack):
                if layer.activation not in ACTIVATIONS:
                    raise ConfigurationError(
                        f"{name} layer {i}: unknown activation {layer.activation!r}"
                    )
                if layer.weight.shape[0] != width:
                    raise ConfigurationError(
                        f"{name} layer {i}: expected fan-in {width}, "
                        f"got {layer.weight.shape[0]}"
                    )
                if layer.bias.shape != (layer.weight.shape[1],):
                    raise ConfigurationError(
                        f"{name} layer {i}: bias shape {layer.bias.shape} does not "
                        f"match fan-out {layer.weight.shape[1]}"
                    )
                width = layer.weight.shape[1]
            if width != w_out:
                raise ConfigurationError(
                    f"{name} output width {width} != required {w_out}"
                )
        if self.flat is None or not all(
                np.may_share_memory(a, self.flat) for a in self.arrays()):
            packed = self.with_flat(np.concatenate(
                [a.ravel() for a in self.arrays()], dtype=np.float64))
            self.encoder, self.decoder = packed.encoder, packed.decoder
            self.flat = packed.flat
        return self

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())

    def arrays(self):
        """All weight/bias arrays in a fixed order (encoder first)."""
        out = []
        for layer in self.encoder + self.decoder:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


@dataclass(frozen=True)
class NetworkLayout:
    """Full layer-size chains; first/last entries are pinned by M and n."""

    message_count: int = 16
    channel_uses: int = 7
    encoder_sizes: tuple = (16, 16, 7)
    decoder_sizes: tuple = (7, 16, 16)


def default_layout(message_count=16, channel_uses=7, decoder_hidden=None):
    hidden = message_count if decoder_hidden is None else decoder_hidden
    return NetworkLayout(
        message_count=message_count,
        channel_uses=channel_uses,
        encoder_sizes=(message_count, message_count, channel_uses),
        decoder_sizes=(channel_uses, hidden, message_count),
    )


def init_params(layout: NetworkLayout, seed: int) -> ModelParams:
    """Zero-mean normal weights scaled by 1/sqrt(fan_in); zero biases.

    Hidden layers are ReLU, output layers linear; deterministic given seed.
    """
    m, n = layout.message_count, layout.channel_uses
    k = int(round(np.log2(m)))
    if any(s < 1 for s in layout.encoder_sizes + layout.decoder_sizes):
        raise ConfigurationError("layer sizes must be >= 1")

    rng = substream(seed, "model-init")

    def stack(sizes):
        layers = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            act = "relu" if i < len(sizes) - 2 else "linear"
            weight = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
            layers.append(DenseLayer(weight, np.zeros(fan_out), act))
        return layers

    params = ModelParams(
        stack(layout.encoder_sizes),
        stack(layout.decoder_sizes),
        message_count=m,
        block_bits=k,
        channel_uses=n,
    )
    return params.validate()


def zeros_like_params(params: ModelParams) -> ModelParams:
    return params.with_flat(np.zeros_like(params.flat))


def _forward_stack(layers, inputs):
    """Returns (output, cache) with pre-activations kept for backprop."""
    a = inputs
    cache = []
    for layer in layers:
        pre = a @ layer.weight + layer.bias
        post = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        cache.append((a, pre))
        a = post
    return a, cache


def _backward_stack(layers, cache, grad_out, grad_layers, need_grad_in=True):
    """Backprop through a dense stack, writing each layer's (dW, db) into
    the arrays of ``grad_layers``; returns the input gradient, or None when
    ``need_grad_in`` is false."""
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        a_in, pre = cache[i]
        if layers[i].activation == "relu":
            g = g * (pre > 0.0)
        np.matmul(a_in.T, g, out=grad_layers[i].weight)
        g.sum(axis=0, out=grad_layers[i].bias)
        if i == 0 and not need_grad_in:
            return None
        g = g @ layers[i].weight.T
    return g


def _normalize_energy(z, n):
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(norms < _NORM_FLOOR):
        raise DegenerateCodewordError(
            "encoder output has (near-)zero norm; cannot energy-normalize"
        )
    return np.sqrt(n) * z / norms, norms


def _encoder_forward(params: ModelParams, onehot):
    z, cache = _forward_stack(params.encoder, onehot)
    x, norms = _normalize_energy(z, params.channel_uses)
    return x, z, norms, cache


def _decoder_logits(params: ModelParams, y):
    logits, cache = _forward_stack(params.decoder, y)
    return logits, cache


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def codebook(params: ModelParams) -> np.ndarray:
    """All M codewords, shape (M, n); rows satisfy ||x||^2 = n."""
    onehot = np.eye(params.message_count)
    x, _, _, _ = _encoder_forward(params, onehot)
    return x


def encode(params: ModelParams, message: int) -> np.ndarray:
    """Energy-normalized codeword for one message index.

    Computed through the same batched path as codebook(), so the two agree
    bitwise.
    """
    m = params.message_count
    if not 0 <= message < m:
        raise ValueError(f"message {message} out of range [0, {m})")
    return codebook(params)[int(message)].copy()


def _checked_received(params, received):
    received = np.asarray(received, dtype=float)
    if received.shape[-1] != params.channel_uses:
        raise ValueError(
            f"expected {params.channel_uses} channel values, got {received.shape}"
        )
    if not np.all(np.isfinite(received)):
        raise ValueError("decode input must be finite")
    return received


def decode(params: ModelParams, received) -> np.ndarray:
    """Softmax posterior over messages; accepts (n,) or (batch, n)."""
    logits, _ = _decoder_logits(params, _checked_received(params, received))
    return _softmax(logits)


def predict(params: ModelParams, received) -> np.ndarray:
    """Argmax message index; lowest index wins ties."""
    logits, _ = _decoder_logits(params, _checked_received(params, received))
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
    messages = _check_batch(params, messages)
    batch = messages.size
    m, n = params.message_count, params.channel_uses

    onehot = np.zeros((batch, m))
    onehot[np.arange(batch), messages] = 1.0

    x, z, norms, enc_cache = _encoder_forward(params, onehot)
    if fade is None:
        y = x + noise
    else:
        y = fade[..., None] * x + noise
    logits, dec_cache = _decoder_logits(params, y)
    probs = _softmax(logits)
    picked = probs[np.arange(batch), messages]
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(picked)))
    if not np.isfinite(loss):
        raise DivergenceError("non-finite loss")
    if not want_grads:
        return loss, None

    grads = params.with_flat(np.empty_like(params.flat))
    dlogits = (probs - onehot) / batch
    dy = _backward_stack(params.decoder, dec_cache, dlogits, grads.decoder)
    dx = dy if fade is None else fade[..., None] * dy
    # Energy normalization x = sqrt(n) z / ||z||: project out the radial part.
    radial = (z * dx).sum(axis=-1, keepdims=True)
    dz = np.sqrt(n) / norms * (dx - z * radial / norms**2)
    _backward_stack(params.encoder, enc_cache, dz, grads.encoder,
                    need_grad_in=False)
    return loss, grads


def finite_difference_gradients(params, messages, noise, fade=None,
                                step=1e-5) -> ModelParams:
    """Central-difference gradients of the fixed-realization loss.

    Slow by construction: one loss pair per parameter entry.  This is the
    independent oracle for loss_and_gradients_given.
    """
    work = params.copy()
    grads = zeros_like_params(params)
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
    if [a.shape for a in params.arrays()] != [a.shape for a in grads.arrays()]:
        raise ConfigurationError("gradient shapes do not match parameter shapes")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    lr, eps = state.learning_rate, state.epsilon
    g = grads.flat
    m = b1 * state.first_moment + (1.0 - b1) * g
    v = b2 * state.second_moment + (1.0 - b2) * g**2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new_flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params.with_flat(new_flat), AdamState(m, v, t, lr, b1, b2, eps)


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
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_checkpoint(params: ModelParams, path):
    params.validate()
    head = [CHECKPOINT_MAGIC]

    def u32(*vals):
        head.append(np.asarray(vals, dtype="<u4").tobytes())

    u32(CHECKPOINT_VERSION, params.message_count, params.block_bits,
        params.channel_uses, len(params.encoder), len(params.decoder))
    for layer in params.encoder + params.decoder:
        u32(layer.weight.shape[0], layer.weight.shape[1],
            _ACT_CODE[layer.activation])
    with open(path, "wb") as fh:
        fh.write(b"".join(head) + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"{path}: not a model checkpoint")
    try:
        fields = np.frombuffer(blob, dtype="<u4", count=6, offset=8)
        version, m, k, n, n_enc, n_dec = (int(v) for v in fields)
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported checkpoint version {version}")
        shapes = np.frombuffer(blob, dtype="<u4", count=3 * (n_enc + n_dec),
                               offset=32).reshape(-1, 3).tolist()
        specs = [(fan_in, fan_out, _ACT_NAME[act])
                 for fan_in, fan_out, act in shapes]
        offset = 32 + 12 * len(specs)
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out, _ in shapes)
        flat = np.frombuffer(blob, dtype="<f8", count=size,
                             offset=offset).astype(np.float64)
    except ConfigurationError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(f"{path}: corrupt checkpoint ({exc})") from exc
    if offset + flat.nbytes != len(blob):
        raise ConfigurationError(f"{path}: trailing bytes in checkpoint")
    layers = _layers_over(flat, specs)
    params = ModelParams(layers[:n_enc], layers[n_enc:], m, k, n, flat)
    return params.validate()
