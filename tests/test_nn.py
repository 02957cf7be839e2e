import numpy as np
import pytest

from aecomm import nn
from aecomm.errors import (
    ConfigurationError,
    DegenerateCodewordError,
    DivergenceError,
)
from aecomm.rng import substream


def small_batch(params, size=4, sigma=0.4, key=0):
    rng = substream(key, "nn-test")
    messages = rng.integers(0, params.message_count, size)
    noise = sigma * rng.standard_normal((size, params.channel_uses))
    return messages, noise


def layer_arrays(params):
    """Every layer's weight and bias view, in checkpoint order."""
    return [a for layer in params.encoder + params.decoder
            for a in (layer.weight, layer.bias)]


def zeros_twin(params):
    return nn.ModelParams(params.layout, np.zeros_like(params.flat))


def fitted_decoder(params, scale=None):
    """A copy whose decoder maps every clean codeword to its message with a
    large logit margin: hidden_j = scale * <y, c_j>, logits = hidden."""
    cb = nn.codebook(params)
    m, n = params.message_count, params.channel_uses
    gram = cb @ cb.T
    margin = n - (gram - 2 * n * np.eye(m)).max()
    if scale is None:
        scale = 25.0 / margin
    fitted = params.copy()
    hidden, output = fitted.decoder
    hidden.weight[...] = scale * cb.T
    output.weight[...] = np.eye(m)
    for layer in fitted.decoder:
        layer.bias[...] = 0.0
    return fitted


class TestInit:
    def test_deterministic(self):
        a = nn.init_params(nn.default_layout(), 42)
        b = nn.init_params(nn.default_layout(), 42)
        assert np.array_equal(a.flat, b.flat)

    def test_seeds_differ(self):
        a = nn.init_params(nn.default_layout(), 1)
        b = nn.init_params(nn.default_layout(), 2)
        assert not np.array_equal(a.encoder[0].weight, b.encoder[0].weight)

    def test_biases_zero(self):
        params = nn.init_params(nn.default_layout(), 1)
        for layer in params.encoder + params.decoder:
            assert np.all(layer.bias == 0.0)

    def test_weight_scale(self):
        params = nn.init_params(nn.default_layout(), 3)
        w = params.encoder[0].weight  # fan_in 16 -> std 0.25
        assert abs(w.std() - 0.25) < 0.05

    def test_hidden_relu_output_linear(self):
        params = nn.init_params(nn.default_layout(), 0)
        assert [l.activation for l in params.encoder] == ["relu", "linear"]
        assert [l.activation for l in params.decoder] == ["relu", "linear"]

    def test_bad_encoder_output_width(self):
        with pytest.raises(ConfigurationError):
            nn.init_params(nn.NetworkLayout(16, 7, (16, 16, 6), (7, 16, 16)), 0)

    def test_bad_message_count(self):
        with pytest.raises(ConfigurationError):
            nn.init_params(nn.NetworkLayout(12, 7, (12, 12, 7), (7, 12, 12)), 0)

    def test_decoder_hidden_override(self):
        layout = nn.default_layout(decoder_hidden=32)
        params = nn.init_params(layout, 0)
        assert params.decoder[0].weight.shape == (7, 32)
        assert params.decoder[1].weight.shape == (32, 16)

    def test_parameter_count_is_analytic(self):
        m, n = 16, 7
        for w in (2, 4, 16):
            layout = nn.default_layout(m, n, w)
            want = (m * m + m) + (m * n + n) + (n * w + w) + (w * m + m)
            assert layout.parameter_count == want
            assert nn.init_params(layout, 0).flat.size == want


class TestEncode:
    def test_energy_constraint_all_messages(self, quick_model):
        norms = (nn.codebook(quick_model) ** 2).sum(axis=1)
        assert norms.shape == (16,)
        assert np.all(np.abs(norms - 7.0) <= 1e-9)

    def test_energy_constraint_at_init(self):
        params = nn.init_params(nn.default_layout(), 11)
        norms = (nn.codebook(params) ** 2).sum(axis=1)
        assert np.all(np.abs(norms - 7.0) <= 1e-9)

    def test_deterministic(self, quick_model):
        assert np.array_equal(nn.codebook(quick_model), nn.codebook(quick_model))

    def test_degenerate_zero_output(self):
        params = nn.init_params(nn.default_layout(), 0)
        for layer in params.encoder:
            layer.weight[...] = 0.0
        with pytest.raises(DegenerateCodewordError):
            nn.codebook(params)

    def test_codebook_matches_written_out_encoder(self, quick_model):
        # row m is sqrt(7) z / ||z|| for z = relu(e_m W1 + b1) W2 + b2
        hidden, output = quick_model.encoder
        z = (np.maximum(hidden.weight + hidden.bias, 0.0) @ output.weight
             + output.bias)
        want = np.sqrt(7.0) * z / np.linalg.norm(z, axis=1, keepdims=True)
        cb = nn.codebook(quick_model)
        assert cb.shape == (16, 7)
        assert np.allclose(cb, want, rtol=0, atol=1e-12)


class TestDecode:
    def test_posterior_sums_to_one(self, quick_model):
        # the loss of a one-block batch is -log of its message's posterior;
        # at one received word y the 16 posteriors sum to one
        cb = nn.codebook(quick_model)
        for y in substream(1, "dec").standard_normal((8, 7)):
            posterior = [np.exp(-nn.loss_given_disturbance(
                quick_model, [m], (y - cb[m])[None])) for m in range(16)]
            assert abs(sum(posterior) - 1.0) <= 1e-12

    def test_zero_decoder_gives_uniform(self):
        params = nn.init_params(nn.default_layout(), 0)
        for layer in params.decoder:
            layer.weight[...] = 0.0
        noise = substream(4, "dec").standard_normal((16, 7))
        loss = nn.loss_given_disturbance(params, np.arange(16), noise)
        assert loss == pytest.approx(np.log(16.0), rel=0, abs=1e-15)

    def test_predict_tie_break_lowest_index(self):
        params = nn.init_params(nn.default_layout(), 0)
        for layer in params.decoder:
            layer.weight[...] = 0.0
        assert nn.predict(params, np.ones(7)) == 0

    def test_nonfinite_input_rejected(self, quick_model):
        with pytest.raises(ValueError):
            nn.predict(quick_model, np.full(7, np.nan))
        with pytest.raises(ValueError):
            nn.predict(quick_model, np.ones((3, 6)))

    def test_noiseless_round_trip(self, quick_model):
        cb = nn.codebook(quick_model)
        assert np.array_equal(nn.predict(quick_model, cb), np.arange(16))

    def test_predict_matches_written_out_forward(self, quick_model):
        # argmax of relu(y W1 + b1) W2 + b2, bit for bit, on noisy codewords
        rng = substream(3, "dec")
        y = nn.codebook(quick_model)[rng.integers(0, 16, 20_000)]
        y = y + 0.7 * rng.standard_normal(y.shape)
        hidden, output = quick_model.decoder
        logits = np.maximum(y @ hidden.weight + hidden.bias, 0.0) @ output.weight + output.bias
        assert np.array_equal(nn.predict(quick_model, y), np.argmax(logits, axis=-1))


def batch_major_loss_and_gradients(params, messages, noise, fade=None):
    """The step written out one row per block: the encoder on each block's
    one-hot row, the softmax along each row, and every gradient summed over
    the batch rows.  Returns (loss, flat gradient)."""
    batch = messages.size
    m, n = params.message_count, params.channel_uses
    rows = np.arange(batch)
    onehot = np.zeros((batch, m))
    onehot[rows, messages] = 1.0

    def forward(layers, a):
        cache = []
        for layer in layers:
            pre = a @ layer.weight + layer.bias
            cache.append((a, pre))
            a = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
        return a, cache

    def backward(layers, cache, g, grad_layers):
        for layer, (a, pre), out in reversed(list(zip(layers, cache,
                                                      grad_layers))):
            if layer.activation == "relu":
                g = g * (pre > 0.0)
            out.weight[...] = a.T @ g
            out.bias[...] = g.sum(axis=0)
            g = g @ layer.weight.T
        return g

    z, enc_cache = forward(params.encoder, onehot)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    gain = np.ones((batch, 1)) if fade is None else fade[:, None]
    y = gain * (np.sqrt(n) * z / norms) + noise
    logits, dec_cache = forward(params.decoder, y)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[rows, messages]))

    grads = zeros_twin(params)
    dy = backward(params.decoder, dec_cache, (probs - onehot) / batch,
                  grads.decoder)
    dx = gain * dy
    radial = (z * dx).sum(axis=1, keepdims=True)
    dz = np.sqrt(n) / norms * (dx - z * radial / norms**2)
    backward(params.encoder, enc_cache, dz, grads.encoder)
    return loss, grads.flat


class TestLossAndGradients:
    @pytest.mark.parametrize("decoder_sizes, batch, faded", [
        ((7, 16, 16), 256, False),
        ((7, 16, 16), 256, True),
        ((7, 12, 20, 16), 256, False),
        ((7, 12, 20, 16), 64, True),
        ((7, 16, 16), 5, False),  # most codewords get no gradient
    ], ids=["awgn", "rayleigh", "deep-decoder", "deep-decoder-rayleigh",
            "five-blocks"])
    def test_matches_batch_major_reference(self, decoder_sizes, batch, faded):
        # the step sums per message and runs the decoder on (width, batch)
        # arrays, so it agrees with the row-per-block form up to the order
        # of its sums
        layout = nn.NetworkLayout(16, 7, (16, 16, 7), decoder_sizes)
        params = nn.init_params(layout, 40 + batch)
        messages, noise = small_batch(params, size=batch, sigma=0.5,
                                      key=batch)
        fade = None
        if faded:
            fade = substream(batch, "fade").rayleigh(np.sqrt(0.5), size=batch)
        loss, grads = nn.loss_and_gradients_given(params, messages, noise,
                                                  fade)
        want_loss, want = batch_major_loss_and_gradients(params, messages,
                                                         noise, fade)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        assert nn.loss_given_disturbance(params, messages, noise, fade) == loss
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.allclose(grads.flat, want, rtol=1e-12, atol=1e-12 * scale)

    def test_matches_finite_differences(self):
        for case in range(2):
            params = nn.init_params(nn.default_layout(), 20 + case)
            messages, noise = small_batch(params, size=4, sigma=0.5, key=case)
            err = nn.gradient_check_case(params, messages, noise)
            assert err < 1e-4

    def test_matches_finite_differences_with_fade(self):
        params = nn.init_params(nn.default_layout(), 30)
        messages, noise = small_batch(params, size=4, sigma=0.3, key=9)
        fade = substream(9, "fade").rayleigh(np.sqrt(0.5), size=4)
        assert nn.gradient_check_case(params, messages, noise, fade) < 1e-4

    def test_gradient_check_full(self):
        assert nn.gradient_check(seed=1, cases=4) < 1e-4

    def test_duplicated_batch_same_loss_and_grads(self):
        params = nn.init_params(nn.default_layout(), 5)
        messages, noise = small_batch(params, size=6, sigma=0.4, key=3)
        doubled_m = np.concatenate([messages, messages])
        doubled_n = np.concatenate([noise, noise])
        loss_a, grads_a = nn.loss_and_gradients_given(params, messages, noise)
        loss_b, grads_b = nn.loss_and_gradients_given(params, doubled_m, doubled_n)
        assert loss_a == pytest.approx(loss_b, rel=1e-12)
        assert np.allclose(grads_a.flat, grads_b.flat, atol=1e-12)

    def test_interpolation_loss_near_zero(self, quick_model):
        fitted = fitted_decoder(quick_model)
        messages = np.array([3])
        noise = np.zeros((1, 7))
        assert nn.loss_given_disturbance(fitted, messages, noise) < 1e-6

    def test_interpolation_all_messages(self, quick_model):
        fitted = fitted_decoder(quick_model)
        messages = np.arange(16)
        noise = np.zeros((16, 7))
        assert nn.loss_given_disturbance(fitted, messages, noise) < 1e-6

    def test_divergence_on_underflowing_posterior(self, quick_model):
        fitted = fitted_decoder(quick_model, scale=2000.0)
        # point every logit at the wrong message
        fitted.decoder[1].weight[...] = np.roll(np.eye(16), 1, axis=1)
        messages = np.arange(16)
        noise = np.zeros((16, 7))
        with pytest.raises(DivergenceError):
            nn.loss_given_disturbance(fitted, messages, noise)

    def test_bad_batch_rejected(self, quick_model):
        with pytest.raises(ValueError):
            nn.loss_given_disturbance(quick_model, np.array([16]), np.zeros((1, 7)))
        with pytest.raises(ValueError):
            nn.loss_given_disturbance(
                quick_model, np.array([], dtype=int), np.zeros((0, 7))
            )

    @pytest.mark.parametrize("messages", [[2.7, 5.2], [2.0, 5.0], [True, False]],
                             ids=["fractional", "integral-float", "bool"])
    def test_non_integer_indices_rejected(self, quick_model, messages):
        noise = np.zeros((2, 7))
        with pytest.raises(ValueError, match="integer dtype"):
            nn.loss_and_gradients_given(quick_model, messages, noise)
        with pytest.raises(ValueError, match="integer dtype"):
            nn.loss_given_disturbance(quick_model, messages, noise)

    def test_integer_indices_of_any_width_accepted(self, quick_model):
        messages = substream(0, "nn-test").integers(0, 16, 8)
        noise = np.zeros((8, 7))
        want, want_grads = nn.loss_and_gradients_given(quick_model, messages,
                                                       noise)
        for same in (messages.astype(np.int32), messages.astype(np.uint8),
                     messages.tolist()):
            loss, grads = nn.loss_and_gradients_given(quick_model, same,
                                                      noise)
            assert loss == want
            assert np.array_equal(grads.flat, want_grads.flat)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = nn.init_params(nn.default_layout(), 6)
        state = nn.AdamState.for_params(params)
        updated, new_state = nn.adam_step(params, zeros_twin(params), state)
        assert np.array_equal(params.flat, updated.flat)
        assert new_state.step == 1

    def test_opposite_gradients_negate_deltas(self):
        params = nn.init_params(nn.default_layout(), 7)
        state = nn.AdamState.for_params(params)
        grads = nn.init_params(nn.default_layout(), 8)  # arbitrary values
        up, _ = nn.adam_step(params, grads, state)
        neg = nn.ModelParams(grads.layout, -grads.flat)
        down, _ = nn.adam_step(params, neg, state)
        # deltas reconstructed from the updated parameters carry one ulp of
        # rounding from the add, so compare tightly rather than bitwise
        assert np.allclose(up.flat - params.flat, -(down.flat - params.flat),
                           rtol=0, atol=1e-12)

    def test_first_step_unit_gradient_delta(self):
        params = nn.init_params(nn.default_layout(), 9)
        state = nn.AdamState.for_params(params, learning_rate=1e-3)
        ones = nn.ModelParams(params.layout, np.ones_like(params.flat))
        updated, _ = nn.adam_step(params, ones, state)
        assert np.all(np.abs((updated.flat - params.flat) + 1e-3) < 1e-9)

    def test_step_counter_increments(self):
        params = nn.init_params(nn.default_layout(), 10)
        state = nn.AdamState.for_params(params)
        g = zeros_twin(params)
        for want in (1, 2, 3):
            params, state = nn.adam_step(params, g, state)
            assert state.step == want

    def test_shape_mismatch_rejected(self):
        params = nn.init_params(nn.default_layout(), 11)
        other = nn.init_params(nn.default_layout(decoder_hidden=8), 11)
        state = nn.AdamState.for_params(params)
        with pytest.raises(ConfigurationError):
            nn.adam_step(params, other, state)

    def test_invalid_hyperparameters_rejected(self):
        params = nn.init_params(nn.default_layout(), 12)
        with pytest.raises(ConfigurationError):
            nn.AdamState.for_params(params, learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            nn.AdamState.for_params(params, beta1=-0.1)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.message_count == quick_model.message_count
        assert loaded.layout == quick_model.layout
        assert loaded.channel_uses == quick_model.channel_uses
        assert np.array_equal(quick_model.flat, loaded.flat)
        acts = [l.activation for l in loaded.encoder + loaded.decoder]
        want = [l.activation for l in quick_model.encoder + quick_model.decoder]
        assert acts == want

    def test_save_is_deterministic(self, quick_model, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(quick_model, a)
        nn.save_checkpoint(quick_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"NOTAMODL"
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError):
            nn.load_checkpoint(path)

    def test_bad_version_rejected(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigurationError):
            nn.load_checkpoint(path)

    def test_truncated_rejected(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        blob = path.read_bytes()
        # a short body, and the magic with less than the 32-byte header
        for kept in (blob[:-16], blob[:20]):
            path.write_bytes(kept)
            with pytest.raises(ConfigurationError, match=r"model\.ckpt"):
                nn.load_checkpoint(path)

    @pytest.mark.parametrize("edits, kept, fault", [
        # both layer counts 0, header only
        ({24: 0, 28: 0}, 32, "encoder has no layers"),
        ({32 + 12: 15}, None, "not a chain"),  # encoder layer 1 fan_in
        ({32 + 8: 0}, None, "not a chain"),  # encoder hidden layer linear
        ({16: 3}, None, "k=3 does not match M=16"),
    ])
    def test_layout_fault_names_file(self, quick_model, tmp_path, edits,
                                     kept, fault):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        blob = bytearray(path.read_bytes())
        for offset, word in edits.items():
            blob[offset:offset + 4] = word.to_bytes(4, "little")
        path.write_bytes(bytes(blob[:kept]))
        with pytest.raises(ConfigurationError,
                           match=rf"model\.ckpt: .*{fault}"):
            nn.load_checkpoint(path)

    def test_stack_rejected_on_save(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        stacked = nn.ModelParams(quick_model.layout,
                                 np.stack([quick_model.flat] * 2))
        with pytest.raises(ConfigurationError,
                           match="one model per checkpoint; got a stack of 2"):
            nn.save_checkpoint(stacked, path)
        assert not path.exists()

    def test_trailing_bytes_rejected(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ConfigurationError):
            nn.load_checkpoint(path)

    def test_loaded_model_predicts_identically(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        loaded = nn.load_checkpoint(path)
        y = substream(5, "ckpt").standard_normal((128, 7))
        assert np.array_equal(nn.predict(quick_model, y), nn.predict(loaded, y))


def reference_adam(p_arrays, g_arrays, m_arrays, v_arrays, t,
                   lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Adam written per array, the way the update reads on paper."""
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(p_arrays, g_arrays, m_arrays, v_arrays):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g**2
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_p, new_m, new_v


def assert_packed(params):
    """Every layer array is the next slice of params.flat."""
    arrays = layer_arrays(params)
    assert all(np.shares_memory(a, params.flat) for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                          params.flat)


class TestFlatBuffer:
    def test_layer_arrays_are_views_into_flat(self, quick_model, tmp_path):
        params = nn.init_params(nn.default_layout(decoder_hidden=12), 4)
        messages, noise = small_batch(params)
        _, grads = nn.loss_and_gradients_given(params, messages, noise)
        state = nn.AdamState.for_params(params)
        updated, _ = nn.adam_step(params, grads, state)
        nn.save_checkpoint(quick_model, tmp_path / "model.ckpt")
        loaded = nn.load_checkpoint(tmp_path / "model.ckpt")
        numeric = nn.finite_difference_gradients(params, messages[:2],
                                                 noise[:2])
        for p in (params, params.copy(), grads, updated, loaded, numeric):
            assert_packed(p)
        assert not np.shares_memory(params.copy().flat, params.flat)

    def test_layers_cannot_be_swapped_out(self, quick_model, tmp_path):
        fitted = fitted_decoder(quick_model)
        with pytest.raises(AttributeError):
            fitted.decoder[1].weight = np.zeros((16, 16))
        with pytest.raises(TypeError):
            fitted.decoder[1] = fitted.decoder[0]
        with pytest.raises(AttributeError):
            fitted.decoder = ()
        with pytest.raises(ConfigurationError):
            nn.ModelParams(fitted.layout, fitted.flat[:-1])
        assert_packed(fitted)
        path = tmp_path / "fitted.ckpt"
        nn.save_checkpoint(fitted, path)
        for kept in (fitted.copy(), nn.load_checkpoint(path)):
            assert np.array_equal(kept.decoder[1].weight, np.eye(16))

    def test_flat_bytes_are_checkpoint_body(self, quick_model, tmp_path):
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(quick_model, path)
        layers = len(quick_model.encoder) + len(quick_model.decoder)
        header = 32 + 12 * layers
        body = quick_model.flat.astype("<f8").tobytes()
        assert path.read_bytes()[header:] == body

    def test_gradient_buffers_not_aliased(self):
        params = nn.init_params(nn.default_layout(), 13)
        m1, n1 = small_batch(params, key=1)
        m2, n2 = small_batch(params, key=2)
        _, first = nn.loss_and_gradients_given(params, m1, n1)
        kept = first.flat.copy()
        _, second = nn.loss_and_gradients_given(params, m2, n2)
        assert not np.shares_memory(first.flat, second.flat)
        assert not np.shares_memory(first.flat, params.flat)
        assert np.array_equal(first.flat, kept)
        assert not np.array_equal(first.flat, second.flat)

    def test_adam_matches_per_array_reference(self):
        params = nn.init_params(nn.default_layout(), 14)
        state = nn.AdamState.for_params(params)
        ref_p = [a.copy() for a in layer_arrays(params)]
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        for t in (1, 2, 3):
            messages, noise = small_batch(params, size=8, key=t)
            _, grads = nn.loss_and_gradients_given(params, messages, noise)
            inputs = [params.flat.copy(), grads.flat.copy(),
                      state.first_moment.copy(), state.second_moment.copy()]
            new_params, new_state = nn.adam_step(params, grads, state)
            untouched = [params.flat, grads.flat, state.first_moment,
                         state.second_moment]
            for before, after in zip(inputs, untouched):
                assert np.array_equal(before, after)
            ref_p, ref_m, ref_v = reference_adam(
                ref_p, layer_arrays(grads), ref_m, ref_v, t)
            for got, want in zip(layer_arrays(new_params), ref_p):
                assert np.array_equal(got, want)
            assert np.array_equal(new_state.first_moment,
                                  np.concatenate([a.ravel() for a in ref_m]))
            assert np.array_equal(new_state.second_moment,
                                  np.concatenate([a.ravel() for a in ref_v]))
            params, state = new_params, new_state


def stack(models):
    """The (K, P) stack of models over one layout."""
    return nn.ModelParams(models[0].layout,
                          np.stack([p.flat for p in models]))


class TestModelStack:
    """A (K, P) stack runs each model exactly as a call of its own."""

    @staticmethod
    def stacked_inputs(layout, faded, seeds=(0, 1, 2), size=32):
        models = [nn.init_params(layout, seed) for seed in seeds]
        batches = []
        for key, params in enumerate(models):
            messages, noise = small_batch(params, size=size, key=key)
            fade = (substream(key, "fade").rayleigh(np.sqrt(0.5), size)
                    if faded else None)
            batches.append((messages, noise, fade))
        return models, batches

    def test_layer_table_is_consecutive(self):
        layout = nn.default_layout(decoder_hidden=12)
        offset = 0
        for start, fan_in, fan_out, _ in layout.layers:
            assert start == offset
            offset += fan_in * fan_out + fan_out
        assert offset == layout.parameter_count
        assert layout.layers is layout.layers  # built once per layout

    def test_stack_layers_are_row_views(self):
        models = [nn.init_params(nn.default_layout(), seed) for seed in (1, 2)]
        stacked = stack(models)
        for k, params in enumerate(models):
            for got, want in zip(layer_arrays(stacked), layer_arrays(params)):
                assert np.shares_memory(got, stacked.flat)
                assert np.array_equal(got[k], want)

    def test_stack_of_wrong_width_rejected(self):
        params = nn.init_params(nn.default_layout(), 0)
        with pytest.raises(ConfigurationError):
            nn.ModelParams(params.layout, np.zeros((2, params.flat.size + 1)))
        with pytest.raises(ConfigurationError):
            nn.ModelParams(params.layout, np.zeros((1, 2, params.flat.size)))

    @pytest.mark.parametrize("hidden", [16, 12])
    @pytest.mark.parametrize("faded", [False, True])
    def test_stacked_call_equals_per_model_calls_bit_for_bit(self, hidden,
                                                             faded):
        models, batches = self.stacked_inputs(
            nn.default_layout(decoder_hidden=hidden), faded)
        messages, noise, fade = (None if parts[0] is None else np.stack(parts)
                                 for parts in zip(*batches))
        losses, grads = nn.loss_and_gradients_given(stack(models), messages,
                                                    noise, fade)
        assert losses.shape == (3,)
        assert grads.flat.shape == (3, models[0].flat.size)
        for k, (params, batch) in enumerate(zip(models, batches)):
            loss, want = nn.loss_and_gradients_given(params, *batch)
            assert losses[k] == loss
            assert np.array_equal(grads.flat[k], want.flat)
            assert nn.loss_given_disturbance(
                stack(models), messages, noise, fade)[k] == loss

    def test_stacked_adam_equals_per_model_steps(self):
        models, batches = self.stacked_inputs(nn.default_layout(), False)
        stacked = stack(models)
        _, grads = nn.loss_and_gradients_given(
            stacked, *(np.stack(p) for p in list(zip(*batches))[:2]))
        state = nn.AdamState.for_params(stacked)
        new, new_state = nn.adam_step(stacked, grads, state)
        for k, params in enumerate(models):
            alone, alone_state = nn.adam_step(
                params, nn.ModelParams(params.layout, grads.flat[k]),
                nn.AdamState.for_params(params))
            assert np.array_equal(new.flat[k], alone.flat)
            assert np.array_equal(new_state.second_moment[k],
                                  alone_state.second_moment)
        with pytest.raises(ConfigurationError):
            nn.adam_step(stacked, nn.ModelParams(stacked.layout,
                                                 grads.flat[0]), state)

    def test_failures_name_the_model(self):
        models, batches = self.stacked_inputs(nn.default_layout(), False)
        messages, noise = (np.stack(p) for p in list(zip(*batches))[:2])
        noise[2, 0, 0] = np.nan
        with pytest.raises(DivergenceError) as info:
            nn.loss_and_gradients_given(stack(models), messages, noise)
        assert info.value.model == 2
        degenerate = stack(models)
        for layer in degenerate.encoder:
            layer.weight[1] = 0.0
            layer.bias[1] = 0.0
        with pytest.raises(DegenerateCodewordError) as info:
            nn.loss_and_gradients_given(degenerate, messages, noise)
        assert info.value.model == 1

    def test_batch_must_match_the_stack(self):
        models, batches = self.stacked_inputs(nn.default_layout(), False)
        messages, noise = (np.stack(p) for p in list(zip(*batches))[:2])
        with pytest.raises(ValueError, match="per model"):
            nn.loss_and_gradients_given(stack(models), messages[:2],
                                        noise[:2])
        bad = messages.copy()
        bad[1, 3] = 16
        with pytest.raises(ValueError, match="out of range"):
            nn.loss_and_gradients_given(stack(models), bad, noise)

    def test_reused_workspace_gives_fresh_results(self):
        models, batches = self.stacked_inputs(nn.default_layout(), True)
        stacked = stack(models)
        work = nn.Workspace()
        for shift in (0, 1, 0):
            messages, noise, fade = (np.roll(np.stack(p), shift, axis=0)
                                     for p in zip(*batches))
            losses, grads = nn.loss_and_gradients_given(stacked, messages,
                                                        noise, fade, work)
            want, want_grads = nn.loss_and_gradients_given(stacked, messages,
                                                           noise, fade)
            assert np.array_equal(losses, want)
            assert np.array_equal(grads.flat, want_grads.flat)
