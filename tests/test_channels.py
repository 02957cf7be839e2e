import warnings
from pathlib import Path

import numpy as np
import pytest

from aecomm import channels
from aecomm.channels import (
    ChannelSpec,
    correlation_factor,
    draw_disturbance,
    draw_shared_disturbance,
    noise_variance,
    transmit,
)
from aecomm.config import load_config
from aecomm.errors import ConfigurationError
from aecomm.rng import substream

REFERENCE = load_config(
    Path(__file__).resolve().parent.parent / "configs" / "reference.cfg")


class TestNoiseVariance:
    def test_zero_db_rate_four_sevenths(self):
        # 1 / (2 * 4/7 * 1) = 7/8
        assert noise_variance(0.0, 4.0 / 7.0) == pytest.approx(0.875, abs=1e-15)

    def test_ten_db_scales_by_ten(self):
        assert noise_variance(10.0, 4.0 / 7.0) == pytest.approx(0.0875, abs=1e-15)

    def test_rate_one(self):
        assert noise_variance(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_positive_infinity_means_zero_noise(self):
        assert noise_variance(np.inf, 4.0 / 7.0) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_variance(np.nan, 0.5)

    def test_negative_infinity_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_variance(-np.inf, 0.5)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_variance(0.0, 0.0)

    @pytest.mark.parametrize("as_float", [float, np.float64])
    @pytest.mark.parametrize("ebn0_db", [4000, -4000])
    def test_no_variance_beyond_the_float_range_rejected(self, ebn0_db,
                                                         as_float):
        # 10^(dB/10) overflows at +4000 dB and underflows to 0 at -4000 dB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="4000 dB gives no"):
                noise_variance(as_float(ebn0_db), 4 / 7)

    @pytest.mark.parametrize("ebn0_db", sorted(
        {*map(float, REFERENCE.test_grid()), *REFERENCE.train_ebn0_db}))
    def test_numpy_and_python_floats_give_the_same_float(self, ebn0_db):
        # the reference pins were taken with NumPy test-grid points
        rate = float(REFERENCE.rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_numpy = noise_variance(np.float64(ebn0_db), rate)
            from_python = noise_variance(float(ebn0_db), rate)
        assert type(from_numpy) is float and type(from_python) is float
        assert from_numpy.hex() == from_python.hex()


class TestChannelSpec:
    def test_defaults_valid(self):
        spec = ChannelSpec()
        assert spec.kind == "awgn"
        assert spec.sigma2 == noise_variance(spec.ebn0_db, spec.rate)

    @pytest.mark.parametrize("ebn0_db", [-3.5, 0.0, 7.0, np.inf])
    def test_sigma2_is_the_noise_variance_computed_once(self, monkeypatch,
                                                        ebn0_db):
        calls = []

        def counting(*args):
            calls.append(args)
            return noise_variance(*args)

        # computed on construction, where a bad Eb/N0 can fail
        monkeypatch.setattr(channels, "noise_variance", counting)
        spec = ChannelSpec("awgn", ebn0_db, 4 / 7)
        assert calls == [(ebn0_db, 4 / 7)]
        assert spec.sigma2 == noise_variance(ebn0_db, 4 / 7)
        assert spec.sigma2 == spec.sigma2
        assert calls == [(ebn0_db, 4 / 7)]

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(kind="bsc")

    def test_rate_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(rate=0.0)
        with pytest.raises(ConfigurationError):
            ChannelSpec(rate=1.5)

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(kind="correlated_awgn", rho=1.0)
        with pytest.raises(ConfigurationError):
            ChannelSpec(kind="correlated_awgn", rho=-0.1)

    def test_nan_ebn0_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(ebn0_db=np.nan)


class TestCorrelationFactor:
    def test_factor_reconstructs_covariance(self):
        for rho in (0.3, 0.6, 0.9):
            sigma2 = 0.7
            factor = correlation_factor(rho, 7, sigma2)
            lags = np.arange(7)
            toeplitz = rho ** np.abs(lags[:, None] - lags[None, :])
            assert np.allclose(factor @ factor.T, sigma2 * toeplitz, atol=1e-12)

    def test_rho_zero_is_scaled_identity(self):
        factor = correlation_factor(0.0, 5, 0.25)
        assert np.array_equal(factor, 0.5 * np.eye(5))

    def test_lower_triangular(self):
        factor = correlation_factor(0.5, 6, 1.0)
        assert np.allclose(factor, np.tril(factor))

    def test_zero_noise_is_the_zero_factor(self):
        # sigma^2 T is all zeros there, which has no Cholesky factor
        assert np.array_equal(correlation_factor(0.5, 7, 0.0), np.zeros((7, 7)))

    def test_computed_once_and_read_only(self):
        factor = correlation_factor(0.9, 7, 0.3)
        assert correlation_factor(0.9, 7, 0.3) is factor
        assert not factor.flags.writeable


class TestDrawDisturbance:
    def test_awgn_statistics(self):
        spec = ChannelSpec("awgn", 0.0, 0.5)  # sigma2 = 1
        noise, fade = draw_disturbance(spec, (200_000, 7), substream(0, "t"))
        assert fade is None
        assert abs(noise.mean()) < 0.01
        assert abs(noise.var() - 1.0) < 0.01

    def test_rho_zero_matches_awgn_draw(self):
        awgn = ChannelSpec("awgn", 4.0, 4 / 7)
        corr = ChannelSpec("correlated_awgn", 4.0, 4 / 7, rho=0.0)
        a, _ = draw_disturbance(awgn, (1000, 7), substream(1, "x"))
        b, _ = draw_disturbance(corr, (1000, 7), substream(1, "x"))
        assert np.array_equal(a, b)

    def test_correlated_sample_covariance(self):
        # empirical covariance within 2% (max abs entry) of sigma2 * T(rho)
        rho, sigma2 = 0.6, noise_variance(2.0, 4 / 7)
        spec = ChannelSpec("correlated_awgn", 2.0, 4 / 7, rho=rho)
        noise, _ = draw_disturbance(spec, (400_000, 7), substream(2, "cov"))
        emp = np.cov(noise.T)
        lags = np.arange(7)
        want = sigma2 * rho ** np.abs(lags[:, None] - lags[None, :])
        assert np.abs(emp - want).max() <= 0.02 * sigma2

    def test_rayleigh_fade_unit_second_moment(self):
        spec = ChannelSpec("rayleigh", 5.0, 4 / 7)
        _, fade = draw_disturbance(spec, (300_000, 7), substream(3, "h"))
        assert fade.shape == (300_000,)
        assert np.all(fade > 0)
        assert abs((fade**2).mean() - 1.0) < 0.01

    def test_noise_drawn_before_fade(self):
        # sharing a substream, the additive noise is identical whether or
        # not a fade is drawn afterwards
        awgn = ChannelSpec("awgn", 5.0, 4 / 7)
        ray = ChannelSpec("rayleigh", 5.0, 4 / 7)
        a, _ = draw_disturbance(awgn, (500, 7), substream(4, "pair"))
        b, _ = draw_disturbance(ray, (500, 7), substream(4, "pair"))
        assert np.array_equal(a, b)


class TestSharedDraw:
    """One draw shaped for several specs of one kind, as lockstep training
    draws it for the models of one seed."""

    @pytest.mark.parametrize("kind, rho", [
        ("awgn", 0.0), ("correlated_awgn", 0.7), ("rayleigh", 0.0)],
        ids=["awgn", "correlated_awgn", "rayleigh"])
    def test_each_spec_gets_what_draw_disturbance_gives(self, kind, rho):
        specs = [ChannelSpec(kind, db, 4 / 7, rho=rho)
                 for db in (-4.0, 0.0, 7.0, np.inf)]
        out = np.full((len(specs), 300, 7), np.nan)
        shared_rng = substream(30, kind)
        fade = draw_shared_disturbance(specs, shared_rng, list(out))
        for spec, noise in zip(specs, out):
            rng = substream(30, kind)
            want, want_fade = draw_disturbance(spec, (300, 7), rng)
            assert noise.tobytes() == want.tobytes()
            if want_fade is None:
                assert fade is None
            else:
                assert fade.tobytes() == want_fade.tobytes()
            # both left the substream at the same place
            assert rng.bit_generator.state == shared_rng.bit_generator.state

    def test_specs_must_share_a_kind(self):
        specs = [ChannelSpec("awgn", 7.0), ChannelSpec("rayleigh", 7.0)]
        with pytest.raises(ValueError, match="one kind"):
            draw_shared_disturbance(specs, substream(31, "k"),
                                    list(np.empty((2, 4, 7))))


class TestTransmit:
    def test_awgn_additive(self):
        spec = ChannelSpec("awgn", 3.0, 4 / 7)
        x = substream(5, "cw").standard_normal((64, 7))
        noise, fade = draw_disturbance(spec, (64, 7), substream(6, "n"))
        y = transmit(spec, x, substream(6, "n"))
        assert fade is None
        assert np.array_equal(y, x + noise)

    def test_awgn_bit_for_bit_and_input_untouched(self):
        # y = x + sqrt(sigma2) * z exactly, z from a twin substream
        spec = ChannelSpec("awgn", 2.5, 4 / 7)
        x = substream(12, "cw").standard_normal((500, 7))
        x_before = x.copy()
        z = substream(13, "n").standard_normal((500, 7))
        y = transmit(spec, x, substream(13, "n"))
        assert np.array_equal(y, x_before + np.sqrt(spec.sigma2) * z)
        assert np.array_equal(x, x_before)
        assert not np.shares_memory(y, x)

    @pytest.mark.parametrize("kind, rho", [
        ("awgn", 0.0), ("correlated_awgn", 0.5), ("rayleigh", 0.0)],
        ids=["awgn", "correlated_awgn", "rayleigh"])
    def test_zero_noise_sentinel_passes_through(self, kind, rho):
        spec = ChannelSpec(kind, np.inf, 4 / 7, rho=rho)
        x = substream(7, "cw").standard_normal((16, 7))
        _, fade = draw_disturbance(spec, x.shape, substream(8, "n"))
        rng, awgn_rng = substream(8, "n"), substream(8, "n")
        y = transmit(spec, x, rng)
        assert np.array_equal(y, x if fade is None else fade[:, None] * x)
        # the normals are drawn all the same, so the stream moves on as on
        # awgn; the fades follow them
        transmit(ChannelSpec("awgn", np.inf, 4 / 7), x, awgn_rng)
        if fade is None:
            assert rng.random() == awgn_rng.random()

    def test_rayleigh_scales_blocks(self):
        spec = ChannelSpec("rayleigh", np.inf, 4 / 7)
        x = np.ones((32, 7))
        # the fade from a twin substream: sigma = 0, so y is the fade alone
        _, fade = draw_disturbance(spec, (32, 7), substream(9, "n"))
        y = transmit(spec, x, substream(9, "n"))
        assert fade.shape == (32,)
        assert np.array_equal(y, np.repeat(fade[:, None], 7, axis=1))

    def test_single_vector_shape(self):
        spec = ChannelSpec("awgn", 7.0, 4 / 7)
        y = transmit(spec, np.ones(7), substream(10, "n"))
        assert y.shape == (7,)

    def test_nonfinite_input_rejected(self):
        spec = ChannelSpec("awgn", 7.0, 4 / 7)
        bad = np.full(7, np.nan)
        with pytest.raises(ValueError):
            transmit(spec, bad, substream(11, "n"))


class TestTransmitTiles:
    """On the additive kinds, consecutive transmits on one substream equal
    one whole transmit: the BLER estimator's tiles rely on it."""

    CODEBOOK = substream(20, "tile-codebook").standard_normal((16, 7))

    @pytest.mark.parametrize("kind, rho", [("awgn", 0.0),
                                           ("correlated_awgn", 0.9)])
    def test_tiles_equal_one_whole_transmit_bit_for_bit(self, kind, rho):
        spec = ChannelSpec(kind, 2.0, 4 / 7, rho=rho)
        msgs = substream(21, "tile-msgs").integers(0, 16, 2500)
        whole_rng, tiled_rng = substream(22, kind), substream(22, kind)
        whole = transmit(spec, self.CODEBOOK[msgs], whole_rng)
        tiled = np.concatenate([
            transmit(spec, self.CODEBOOK[msgs[start:start + 1024]], tiled_rng)
            for start in (0, 1024, 2048)])
        assert np.array_equal(tiled.view(np.uint64), whole.view(np.uint64))
        # both left the substream at the same place
        assert whole_rng.random() == tiled_rng.random()
