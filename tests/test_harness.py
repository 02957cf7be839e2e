import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import binomtest

from aecomm import (ExperimentConfig, channels, codecs, harness, nn,
                    shiftmetrics)
from aecomm.channels import ChannelSpec, transmit
from aecomm.cli import run_command
from aecomm.errors import (ConfigurationError, DegenerateCodewordError,
                           DivergenceError)
from aecomm.harness import TILE_ROWS
from aecomm.rng import substream


# message m is sent as (1000 m, 0) under unit-variance noise, so rounding
# the first use recovers m and the second use is a fresh N(0, 1) draw
WIDE_CODEBOOK = np.stack([1000.0 * np.arange(16), np.zeros(16)], axis=1)
UNIT_NOISE = ChannelSpec("awgn", 0.0, 0.5)


def sent_message(y):
    return np.rint(y[:, 0] / 1000).astype(np.int64)


def synthetic_system(p):
    """Errs independently with probability p, deterministic per chunk rng:
    a block is wrong where its N(0, 1) draw falls below the p-quantile."""
    threshold = ndtri(np.clip(p, 0.0, 1.0))

    def decode(y):
        m = sent_message(y)
        return np.where(y[:, 1] < threshold, (m + 1) % 16, m)

    return harness.Link(UNIT_NOISE, WIDE_CODEBOOK, decode)


def blers(curve):
    """The curve's BLER column, one entry per test point."""
    return np.array([p.bler for p in curve.points])


def reduced_config(**overrides):
    base = dict(
        steps=250,
        train_ebn0_db=(7.0,),
        seeds=(0,),
        test_ebn0_start=-4.0,
        test_ebn0_stop=8.0,
        test_ebn0_step=4.0,
        target_block_errors=50,
        max_blocks=20_000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWilson:
    def test_matches_scipy_reference(self):
        for errors, blocks in ((10, 100), (200, 1987), (1, 1000), (500, 500), (0, 50)):
            low, high = harness.wilson_interval(errors, blocks)
            want = binomtest(errors, blocks).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert low == pytest.approx(want.low, abs=1e-12)
            assert high == pytest.approx(want.high, abs=1e-12)

    def test_written_out_z_is_the_normal_quantile(self):
        assert harness._Z95 == float(ndtri(0.975))

    def test_zero_errors_lower_bound_zero(self):
        low, high = harness.wilson_interval(0, 1000)
        assert low == 0.0
        assert 0 < high < 0.01

    @pytest.mark.parametrize("errors, blocks", [(5, 3), (-1, 10)])
    def test_errors_outside_blocks_are_rejected(self, errors, blocks):
        with pytest.raises(ValueError,
                           match=rf"got {errors} errors in {blocks} blocks$"):
            harness.wilson_interval(errors, blocks)

    def test_all_errors_upper_bound_one(self):
        low, high = harness.wilson_interval(300, 300)
        assert high == 1.0
        assert low > 0.98

    @pytest.mark.parametrize("p", [0.3, 0.01, 1e-3])
    def test_coverage_under_stop_at_200_errors(self, p):
        # the estimator stops at the 200th error, so the block count is
        # 200 plus the NegBinomial(200, p) error-free blocks before it
        blocks = 200 + substream(0, "wilson-nb", str(p)).negative_binomial(
            200, p, size=20_000)
        covered = [low <= p <= high for low, high in
                   (harness.wilson_interval(200, int(n)) for n in blocks)]
        assert 0.94 <= np.mean(covered) <= 0.96

    def test_needs_positive_blocks(self):
        with pytest.raises(ValueError):
            harness.wilson_interval(0, 0)


# (blocks, errors) with 1 <= blocks <= 1e9 and 0 <= errors <= blocks
counts = st.integers(1, 10**9).flatmap(
    lambda blocks: st.tuples(st.just(blocks), st.integers(0, blocks)))


class TestBlerTypes:
    @given(st.floats(-50.0, 50.0), counts)
    @settings(max_examples=200)
    def test_point_is_its_counts(self, db, counts):
        blocks, errors = counts
        point = harness.BlerPoint(db, blocks, errors)
        assert point.bler == errors / blocks
        assert (point.ci_low, point.ci_high) == harness.wilson_interval(
            errors, blocks)
        # NumPy scalars give Python values, so the CSV row is the same
        numpy = harness.BlerPoint(np.float64(db), np.int64(blocks),
                                  np.int64(errors))
        assert numpy == point
        assert [type(getattr(numpy, name)) for name in (
            "test_ebn0_db", "blocks", "block_errors", "bler", "ci_low",
            "ci_high")] == [float, int, int, float, float, float]
        curve = harness.BlerCurve("s", "l", None, 1, [])
        assert (harness._csv("", [harness._sweep_row(curve, numpy)])
                == harness._csv("", [harness._sweep_row(curve, point)]))

    def test_point_invariants_enforced(self):
        # errors > blocks, negative errors, no blocks, and float counts,
        # which are rejected rather than truncated
        for blocks, errors, error in (
                (10, 11, ValueError), (10, -1, ValueError), (0, 0, ValueError),
                (-5, 0, ValueError), (10, 2.5, TypeError), (2.5, 1, TypeError),
                (np.float64(10.0), 1, TypeError)):
            with pytest.raises(error):
                harness.BlerPoint(0.0, blocks, errors)

    def test_curve_requires_sorted_unique_points(self):
        a = harness.BlerPoint(0.0, 100, 5)
        b = harness.BlerPoint(1.0, 100, 5)
        harness.BlerCurve("s", "l", None, 1, [a, b])
        with pytest.raises(ValueError):
            harness.BlerCurve("s", "l", None, 1, [b, a])
        with pytest.raises(ValueError):
            harness.BlerCurve("s", "l", None, 1, [a, a])

    def test_stop_rule_validation(self):
        with pytest.raises(ConfigurationError):
            harness.StopRule(0, 100)
        with pytest.raises(ConfigurationError):
            harness.StopRule(10, 0)

    # a StopRule built in code once failed deep in the estimator or ran at
    # a target of 1
    @pytest.mark.parametrize("target, max_blocks, key, shown", [
        (200, 1e3, "max_blocks", "1000.0"),
        (2.5, 1000, "target_block_errors", "2.5"),
        (True, 1000, "target_block_errors", "True"),
        (200, False, "max_blocks", "False"),
    ], ids=["blocks-1e3", "target-2.5", "target-bool", "blocks-bool"])
    def test_stop_rule_rejects_non_integers(self, target, max_blocks, key,
                                            shown):
        with pytest.raises(ConfigurationError,
                           match=rf"^{key}: must be an integer, got {shown}$"):
            harness.StopRule(target, max_blocks)

    def test_stop_rule_accepts_numpy_integers(self):
        stop = harness.StopRule(np.int64(5), np.int32(100))
        assert (stop.target_block_errors, stop.max_blocks) == (5, 100)


class TestEstimateBler:
    def test_always_wrong_stops_at_target(self):
        point = harness.estimate_bler(
            synthetic_system(1.1), 0.0, harness.StopRule(200, 10**6), ("a",)
        )
        assert point.blocks == 200
        assert point.block_errors == 200
        assert point.bler == 1.0

    def test_identity_runs_to_max_blocks(self):
        point = harness.estimate_bler(
            synthetic_system(-1.0), 0.0, harness.StopRule(200, 70_000), ("b",)
        )
        assert point.blocks == 70_000
        assert point.block_errors == 0
        assert point.bler == 0.0

    def test_stops_at_exact_block_of_target_error(self):
        def decode(y):
            # error at even positions within the tile, and so the chunk
            flip = (np.arange(len(y)) + 1) % 2
            return (sent_message(y) + flip) % 16

        link = harness.Link(UNIT_NOISE, WIDE_CODEBOOK, decode)
        point = harness.estimate_bler(
            link, 0.0, harness.StopRule(10, 10**6), ("c",)
        )
        # 10th error sits at 0-based position 18
        assert point.blocks == 19
        assert point.block_errors == 10

    def test_max_blocks_smaller_than_chunk(self):
        point = harness.estimate_bler(
            synthetic_system(0.5), 0.0, harness.StopRule(10**6, 1234), ("d",)
        )
        assert point.blocks == 1234

    def test_deterministic(self):
        a = harness.estimate_bler(
            synthetic_system(0.01), 0.0, harness.StopRule(100, 10**6), ("e", 1)
        )
        b = harness.estimate_bler(
            synthetic_system(0.01), 0.0, harness.StopRule(100, 10**6), ("e", 1)
        )
        assert a == b

    def test_wilson_calibration_covers_true_rate(self):
        # 95% interval should cover the true p in at least 90 of 100 runs
        for p in (0.1, 0.01):
            covered = 0
            for run in range(100):
                point = harness.estimate_bler(
                    synthetic_system(p), 0.0,
                    harness.StopRule(200, 10**6), ("cal", run),
                )
                covered += point.ci_low <= p <= point.ci_high
            assert covered >= 90, (p, covered)

    def test_hamming_hard_ci_contains_closed_form(self):
        db = 4.0
        point = harness.estimate_bler(
            harness.hamming_hard_system(ChannelSpec("awgn", db, 4 / 7)),
            db, harness.StopRule(100, 10**6), ("h",),
        )
        want = codecs.hamming_hard_bler_closed_form(db)
        assert point.ci_low <= want <= point.ci_high


def distance_mld(y):
    """Hamming MLD written as the explicit distance argmin, lowest index on
    ties; the reference for the correlation decoder."""
    dist = ((y[..., None, :] - codecs.CODEBOOK_BPSK) ** 2).sum(axis=-1)
    return dist.argmin(axis=-1)


def decoded_tiles(link, messages, rng):
    """The link's decode of each ``TILE_ROWS`` tile of ``messages``, each
    tile sent by one ``transmit``, as the estimator sends them."""
    tiles = [messages[start:start + TILE_ROWS]
             for start in range(0, len(messages), TILE_ROWS)]
    return [link.decode(transmit(link.spec, link.codebook[sent], rng))
            for sent in tiles]


def run_whole(link, messages, rng):
    """The decoded tiles of one link, joined."""
    return np.concatenate(decoded_tiles(link, messages, rng))


def whole_chunk_estimate(codebook, decode, spec, db, stop, seed_key):
    """The estimator without a tile loop: each chunk is transmitted and
    decoded whole, and a cumulative sum finds the block of the target error.
    On rayleigh, whose fades follow each tile's noise, every tile of the
    chunk is transmitted eagerly and the tiles are joined."""
    target = stop.target_block_errors
    blocks = errors = index = 0
    while errors < target and blocks < stop.max_blocks:
        rng = substream(*seed_key, index)
        msgs = rng.integers(0, len(codebook), min(
            harness.DEFAULT_CHUNK_BLOCKS, stop.max_blocks - blocks))
        if spec.kind == "rayleigh":
            y = np.concatenate([
                transmit(spec, codebook[msgs[start:start + TILE_ROWS]], rng)
                for start in range(0, msgs.size, TILE_ROWS)])
        else:
            y = transmit(spec, codebook[msgs], rng)
        cums = errors + np.cumsum(decode(y) != msgs)
        if cums[-1] >= target:
            blocks += int(np.searchsorted(cums, target)) + 1
            errors = target
        else:
            blocks += msgs.size
            errors = int(cums[-1])
        index += 1
    return harness.BlerPoint(db, blocks, errors)


class TestSystems:
    def test_autoencoder_system_zero_noise_is_exact(self, quick_model):
        system = harness.autoencoder_system(
            quick_model, ChannelSpec("awgn", np.inf, 4 / 7)
        )
        msgs = np.tile(np.arange(16), 4)
        assert np.array_equal(run_whole(system, msgs, substream(0, "s")), msgs)

    def test_hamming_systems_zero_noise_exact(self):
        spec = ChannelSpec("awgn", np.inf, 4 / 7)
        msgs = np.arange(16)
        for make in (harness.hamming_hard_system, harness.hamming_mld_system):
            assert np.array_equal(
                run_whole(make(spec), msgs, substream(1, "s")), msgs)

    def test_uncoded_system_zero_noise_exact(self):
        spec = ChannelSpec("awgn", np.inf, 1.0)
        msgs = np.arange(16)
        assert np.array_equal(
            run_whole(harness.uncoded_system(spec), msgs, substream(2, "s")),
            msgs
        )

    def test_systems_yield_tiles_in_order(self):
        spec = ChannelSpec("awgn", np.inf, 4 / 7)
        msgs = np.arange(2500) % 16
        tiles = decoded_tiles(harness.hamming_mld_system(spec), msgs,
                              substream(3, "s"))
        assert [len(t) for t in tiles] == [TILE_ROWS, TILE_ROWS, 452]
        assert np.array_equal(np.concatenate(tiles), msgs)

    @pytest.mark.parametrize("name, kind, db, target", [
        ("autoencoder", "awgn", 4.0, 300),
        ("autoencoder", "correlated_awgn", 4.0, 300),
        ("autoencoder", "rayleigh", 8.0, 700),
        ("hamming_hard", "awgn", 4.0, 400),
        ("hamming_mld", "awgn", 4.0, 300),
        ("uncoded", "awgn", 6.0, 200),
    ])
    def test_tiles_equal_whole_chunk_reference(self, quick_model, name, kind,
                                               db, target):
        rate = 1.0 if name == "uncoded" else 4 / 7
        rho = 0.9 if kind == "correlated_awgn" else 0.0
        spec = ChannelSpec(kind, db, rate, rho=rho)
        system, codebook, decode = {
            "autoencoder": (harness.autoencoder_system(quick_model, spec),
                            nn.codebook(quick_model),
                            lambda y: nn.predict(quick_model, y)),
            "hamming_hard": (harness.hamming_hard_system(spec),
                             codecs.CODEBOOK_BPSK,
                             lambda y: codecs.bits_to_message(
                                 codecs.hamming_hard_decode(y))),
            "hamming_mld": (harness.hamming_mld_system(spec),
                            codecs.CODEBOOK_BPSK, codecs.hamming_mld_message),
            "uncoded": (harness.uncoded_system(spec),
                        codecs.bpsk_map(codecs.message_to_bits(np.arange(16))),
                        lambda y: codecs.bits_to_message(
                            codecs.bpsk_demap(y))),
        }[name]
        stop = harness.StopRule(target, 10**6)
        key = ("tile-ref", name, kind)
        got = harness.estimate_bler(system, db, stop, key)
        assert got == whole_chunk_estimate(codebook, decode, spec, db, stop,
                                           key)
        # the point stops inside a chunk, past its first tile
        chunk = harness.DEFAULT_CHUNK_BLOCKS
        assert got.block_errors == target
        assert got.blocks % chunk > TILE_ROWS
        assert got.blocks % TILE_ROWS != 0

    def test_matched_noise_pairs_hard_and_mld(self):
        # same substream key -> same messages and same noise draws
        spec = ChannelSpec("awgn", 1.0, 4 / 7)
        stop = harness.StopRule(10**6, 40_000)
        hard = harness.estimate_bler(
            harness.hamming_hard_system(spec), 1.0, stop, ("pair",)
        )
        mld = harness.estimate_bler(
            harness.hamming_mld_system(spec), 1.0, stop, ("pair",)
        )
        assert hard.blocks == mld.blocks
        assert mld.bler <= hard.bler

    @pytest.mark.parametrize("db", [1.0, 4.0, 6.0])
    def test_mld_equals_distance_reference_point_for_point(self, db):
        spec = ChannelSpec("awgn", db, 4 / 7)
        stop = harness.StopRule(200, 100_000)
        got = harness.estimate_bler(harness.hamming_mld_system(spec), db, stop,
                                    ("mld-ref", int(db)))
        want = harness.estimate_bler(
            harness.Link(spec, codecs.CODEBOOK_BPSK, distance_mld), db, stop,
            ("mld-ref", int(db)))
        assert got == want


def record_training(monkeypatch):
    """Record each ``harness.train_autoencoder`` call as its (train Eb/N0,
    seed) arguments and what it returned."""
    real = harness.train_autoencoder
    calls = []

    def recording(config, train_ebn0_db, seed):
        calls.append((train_ebn0_db, seed, real(config, train_ebn0_db, seed)))
        return calls[-1][-1]

    monkeypatch.setattr(harness, "train_autoencoder", recording)
    return calls


def degenerate_at_call(monkeypatch, bad_call):
    """Make the bad_call-th gradient evaluation hit a degenerate codeword."""
    real = nn.loss_and_gradients_given
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == bad_call:
            raise DegenerateCodewordError("encoder output has zero norm")
        return real(*args)

    monkeypatch.setattr(nn, "loss_and_gradients_given", flaky)


class TestTraining:
    def test_degenerate_codeword_names_step(self, monkeypatch):
        degenerate_at_call(monkeypatch, 3)
        with pytest.raises(DegenerateCodewordError,
                           match=r"\(at step 3\)$") as info:
            harness.train_autoencoder(reduced_config(steps=10), 7.0, 0)
        assert info.value.step == 3

    def test_zero_steps_returns_init(self):
        config = reduced_config(steps=0)
        params, history = harness.train_autoencoder(config, 7.0, 3)
        init = nn.init_params(
            nn.NetworkLayout(config.message_count, config.channel_uses,
                             config.decoder_hidden), 3
        )
        assert np.array_equal(params.flat, init.flat)
        assert history.steps == []

    def test_deterministic_trajectory(self):
        config = reduced_config(steps=300)
        a, _ = harness.train_autoencoder(config, 0.0, 5)
        b, _ = harness.train_autoencoder(config, 0.0, 5)
        assert np.array_equal(a.flat, b.flat)

    def test_seeds_differ_but_both_work(self):
        config = reduced_config(steps=800)
        points = []
        for seed in (1, 2):
            params, _ = harness.train_autoencoder(config, 7.0, seed)
            system = harness.autoencoder_system(params, config.channel_spec(7.0))
            point = harness.estimate_bler(
                system, 7.0, harness.StopRule(50, 100_000), (seed, "sanity")
            )
            points.append(point)
        assert all(p.bler < 0.02 for p in points)

    def test_trained_model_beats_chance_quickly(self, quick_model, quick_config):
        system = harness.autoencoder_system(
            quick_model, quick_config.channel_spec(7.0)
        )
        point = harness.estimate_bler(
            system, 7.0, harness.StopRule(50, 100_000), ("sanity",)
        )
        assert point.bler < 0.02

    def test_history_records_every_interval_and_final_step(self):
        config = reduced_config(steps=250, loss_log_interval=100)
        _, history = harness.train_autoencoder(config, 7.0, 0)
        assert history.steps == [100, 200, 250]
        assert len(history.losses) == 3
        assert all(np.isfinite(v) for v in history.losses)

    def test_losses_trend_down(self):
        config = reduced_config(steps=800, loss_log_interval=100)
        _, history = harness.train_autoencoder(config, 7.0, 7)
        assert history.losses[-1] < history.losses[0] / 3


class TestRunSweep:
    def test_reduced_sweep_layout(self):
        config = reduced_config()
        curves = harness.run_sweep(config)
        labels = [c.label for c in curves]
        assert labels == ["ae-train+7dB", "hamming-hard", "hamming-mld",
                          "uncoded-bpsk"]
        assert all(len(c.points) == 4 for c in curves)
        assert curves[0].train_ebn0_db == 7.0
        assert curves[1].train_ebn0_db is None

    def test_sweep_csv_deterministic(self):
        config = reduced_config()
        a = harness.sweep_to_csv(harness.run_sweep(config))
        b = harness.sweep_to_csv(harness.run_sweep(config))
        assert a == b
        assert a.splitlines()[0] == harness.SWEEP_CSV_HEADER
        assert len(a.splitlines()) == 1 + 4 * 4

    def test_seed_pooling_sums_counts(self):
        config = reduced_config(seeds=(0, 1), steps=150)
        ae = harness.run_sweep(config)[0]
        assert ae.seed_count == 2
        # pooled blocks at least the single-seed stopping floor
        assert all(p.blocks >= 2 * 50 for p in ae.points)

    def test_non_hamming_rate_rejected(self):
        from fractions import Fraction

        config = reduced_config(rate=Fraction(1, 2))
        with pytest.raises(ConfigurationError):
            harness.run_sweep(config)
        with pytest.raises(ConfigurationError):
            harness.baseline_curves(config)

    def test_progress_callback_invoked(self):
        seen = []
        harness.run_sweep(reduced_config(steps=50), progress=seen.append)
        assert any("training" in s for s in seen)
        assert any("hamming-mld" in s for s in seen)


class TestBaselines:
    def test_ordering_above_coding_gain_crossover(self):
        config = reduced_config(
            test_ebn0_start=3.0, test_ebn0_stop=8.0, test_ebn0_step=1.0,
            target_block_errors=200, max_blocks=200_000,
        )
        curves = {c.system: c for c in harness.baseline_curves(config)}
        mld = blers(curves["hamming_mld"])
        hard = blers(curves["hamming_hard"])
        uncoded = blers(curves["uncoded"])
        assert np.all(mld <= hard)
        assert np.all(hard <= uncoded)

    def test_hard_curve_tracks_closed_form(self):
        config = reduced_config(
            test_ebn0_start=0.0, test_ebn0_stop=6.0, test_ebn0_step=2.0,
            target_block_errors=200, max_blocks=500_000,
        )
        curves = {c.system: c for c in harness.baseline_curves(config)}
        for point in curves["hamming_hard"].points:
            # 4 standard errors, not strict CI coverage: a 95% interval is
            # allowed to miss 5% of the time, which is not a code defect
            want = codecs.hamming_hard_bler_closed_form(point.test_ebn0_db)
            se = np.sqrt(want * (1 - want) / point.blocks)
            assert abs(point.bler - want) <= 4 * se, point


class TestWorkers:
    """Workers run whole estimates, one per (point, seed)."""

    def test_baseline_curves_equal_at_one_and_three_workers(self):
        config = reduced_config(test_ebn0_start=0.0, test_ebn0_stop=6.0,
                                test_ebn0_step=2.0)
        assert (harness.baseline_curves(config, workers=3)
                == harness.baseline_curves(config, workers=1))

    def test_two_seed_sweep_equal_at_one_and_two_workers(self):
        config = reduced_config(seeds=(0, 1), steps=150)
        serial = harness.run_sweep(config, workers=1)
        threaded = harness.run_sweep(config, workers=2)
        assert threaded == serial
        assert serial[0].seed_count == 2

    # the Rayleigh BLER falls much more slowly with Eb/N0, so its grid runs
    # to 32 dB to reach points past the first chunk
    @pytest.mark.parametrize("kind, rho, start, stop, step", [
        ("awgn", 0.0, 2.0, 8.0, 2.0),
        ("correlated_awgn", 0.5, 2.0, 8.0, 2.0),
        ("rayleigh", 0.0, 8.0, 32.0, 8.0),
    ], ids=["awgn", "correlated_awgn", "rayleigh"])
    def test_no_chunk_is_thrown_away(self, monkeypatch, kind, rho, start,
                                     stop, step):
        config = reduced_config(channel_kind=kind, rho=rho,
                                test_ebn0_start=start, test_ebn0_stop=stop,
                                test_ebn0_step=step, max_blocks=100_000)
        rows = []

        def counting(spec, x, rng):
            rows.append(x.shape[0])
            return transmit(spec, x, rng)

        monkeypatch.setattr(harness.channels, "transmit", counting)
        curves = harness.baseline_curves(config, workers=3)
        chunk = harness.DEFAULT_CHUNK_BLOCKS
        needed = [self.rows_needed(p.blocks, config.max_blocks)
                  for c in curves for p in c.points]
        # a point that stops at its target after the first chunk, where
        # chunks run ahead of the stop would be discarded, inside a tile and
        # before its chunk's last tile, where a whole-chunk draw would
        # transmit more
        assert any(p.block_errors == 50 and p.blocks > chunk
                   and p.blocks % TILE_ROWS
                   and p.blocks % chunk < chunk - TILE_ROWS
                   for c in curves for p in c.points)
        assert sum(rows) == sum(needed)

    @staticmethod
    def rows_needed(blocks, max_blocks):
        """Rows transmitted for a point of ``blocks``: whole chunks up to
        the last one, then whole tiles of that chunk up to the stop."""
        chunk = harness.DEFAULT_CHUNK_BLOCKS
        before = (blocks - 1) // chunk * chunk
        last = min(chunk, max_blocks - before)
        tiles = -(-(blocks - before) // TILE_ROWS)
        return before + min(last, tiles * TILE_ROWS)


class TestSubstreamKeys:
    """Each curve point equals estimate_bler run directly on the substream
    keys (seed, "bler", key, point) that the README documents, with counts
    pooled over the curve's seeds."""

    @staticmethod
    def pooled(system_for, seeds, key, db, stop):
        points = [harness.estimate_bler(system_for(seed), db, stop,
                                        (seed, "bler", key, format(db, "g")))
                  for seed in seeds]
        return harness.BlerPoint(db, sum(p.blocks for p in points),
                                 sum(p.block_errors for p in points))

    @staticmethod
    def small_config(**overrides):
        return reduced_config(test_ebn0_start=2.0, test_ebn0_stop=6.0,
                              target_block_errors=20, max_blocks=5_000,
                              **overrides)

    def test_sweep_pools_seeds_and_baselines_use_first(self, monkeypatch):
        config = self.small_config(steps=60, seeds=(3, 1),
                                   train_ebn0_db=(7.0, 0.0))
        stop = harness.StopRule(20, 5_000)
        alone = {(train_db, seed):
                 harness.train_autoencoder(config, train_db, seed)[0]
                 for train_db in (7.0, 0.0) for seed in (3, 1)}
        trained = record_training(monkeypatch)
        curves = harness.run_sweep(config)
        ae, baselines = curves[:2], curves[2:]
        # one lockstep trains every (train Eb/N0, seed), bit-identical to
        # training each alone
        [(dbs, seeds, pairs)] = trained
        assert (dbs, seeds) == ((7.0, 0.0), (3, 1))
        for key, (params, _) in zip(alone, pairs):
            assert params.flat.tobytes() == alone[key].flat.tobytes()
        assert [c.label for c in ae] == ["ae-train+7dB", "ae-train+0dB"]
        for curve in ae:
            assert curve.seed_count == 2
            for p in curve.points:
                db = p.test_ebn0_db
                assert p == self.pooled(
                    lambda seed: harness.autoencoder_system(
                        alone[curve.train_ebn0_db, seed],
                        config.channel_spec(db)),
                    (3, 1), curve.label, db, stop)
        makers = {"hamming_hard": (harness.hamming_hard_system, 4 / 7),
                  "hamming_mld": (harness.hamming_mld_system, 4 / 7),
                  "uncoded": (harness.uncoded_system, 1.0)}
        assert [c.system for c in baselines] == list(makers)
        for curve in baselines:
            make, rate = makers[curve.system]
            assert curve.seed_count == 1
            for p in curve.points:
                db = p.test_ebn0_db
                assert p == self.pooled(
                    lambda _: make(ChannelSpec("awgn", db, rate)),
                    (3,), "baseline-channel", db, stop)

    def test_robustness_points(self, quick_model):
        config = self.small_config()
        stop = harness.StopRule(20, 5_000)
        _, corr = harness.robustness_probe(quick_model, config, 7.0, seed=3,
                                           rhos=(0.5,), include_rayleigh=False)
        assert corr.label == "ae-corr-rho0.5"
        for p in corr.points:
            db = p.test_ebn0_db
            assert p == self.pooled(
                lambda _: harness.autoencoder_system(
                    quick_model,
                    ChannelSpec("correlated_awgn", db, 4 / 7, rho=0.5)),
                (3,), "robust", db, stop)


class TestRobustness:
    def test_rho_zero_reproduces_awgn_exactly(self, quick_model, quick_config):
        config = reduced_config(
            test_ebn0_start=0.0, test_ebn0_stop=8.0, test_ebn0_step=4.0,
            target_block_errors=50, max_blocks=40_000,
        )
        curves = harness.robustness_probe(
            quick_model, config, 7.0, seed=0, rhos=(0.0,), include_rayleigh=False
        )
        awgn, corr = curves
        assert corr.label == "ae-corr-rho0"
        assert awgn.points == corr.points

    def test_rayleigh_at_least_as_bad_as_awgn(self, quick_model):
        config = reduced_config(
            test_ebn0_start=0.0, test_ebn0_stop=8.0, test_ebn0_step=4.0,
            target_block_errors=50, max_blocks=40_000,
        )
        curves = harness.robustness_probe(
            quick_model, config, 7.0, seed=0, rhos=(), include_rayleigh=True
        )
        awgn, rayleigh = curves
        assert rayleigh.label == "ae-rayleigh"
        assert np.all(blers(rayleigh) >= blers(awgn))

    def test_variant_labels(self, quick_model):
        config = reduced_config(
            test_ebn0_start=4.0, test_ebn0_stop=4.0, target_block_errors=20,
            max_blocks=5_000,
        )
        curves = harness.robustness_probe(quick_model, config, 7.0, seed=0)
        assert [c.label for c in curves] == [
            "ae-awgn", "ae-corr-rho0.5", "ae-corr-rho0.9", "ae-rayleigh"
        ]


class TestOverlapTable:
    """The overlap command's table: overlap_to_csv of one
    compare_received_distributions row per test point."""

    @staticmethod
    def table(tmp_path, test_db):
        out = tmp_path / "run"
        assert run_command(["overlap", "--quiet", "--train-db", "7",
                            f"--test-db={test_db}", "--out", str(out)]) == 0
        return (out / "overlap.csv").read_text()

    def test_matches_shift_metrics(self, tmp_path):
        want = [shiftmetrics.compare_received_distributions(7.0, db, 4 / 7)
                for db in (-4.0, 8.0)]
        assert self.table(tmp_path, "-4,8") == harness.overlap_to_csv(want)

    def test_train_equals_test_row(self, tmp_path):
        [row] = self.table(tmp_path, "7").splitlines()[1:]
        _, overlap_pct, kl_nats = row.split(",")
        assert float(overlap_pct) == 100.0
        assert float(kl_nats) == 0.0

    def test_rows_keep_requested_order(self, tmp_path):
        lines = self.table(tmp_path, "8,-4").splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["8.0", "-4.0"]


class TestWidthSweep:
    """The width probe is the sweep's training and curve at one point, once
    per decoder width."""

    def test_single_width_single_row(self):
        [curve] = harness.width_sweep(reduced_config(steps=60), [8])
        assert (curve.label, len(curve.points)) == ("ae-width8", 4)

    def test_configured_width_reproduces_the_sweep(self, monkeypatch):
        config = reduced_config(steps=150, seeds=(0, 1))
        sweep = harness.run_sweep(config)
        alone = [harness.train_autoencoder(config, 7.0, seed)[0]
                 for seed in config.seeds]
        trained = record_training(monkeypatch)
        [curve] = harness.width_sweep(config, [config.decoder_hidden])
        assert (curve.system, curve.label, curve.train_ebn0_db,
                curve.seed_count) == ("autoencoder", "ae-width16", 7.0, 2)
        assert curve.points == sweep[0].points
        [(dbs, seeds, pairs)] = trained
        assert (dbs, seeds) == ((7.0,), (0, 1))
        for (params, _), lone in zip(pairs, alone):
            assert params.flat.tobytes() == lone.flat.tobytes()

    def test_widths_share_test_blocks_and_narrow_is_worse(self):
        # a target above max_blocks: every point runs to the cap, so both
        # widths see the same blocks and differ only in their errors
        config = reduced_config(steps=700, target_block_errors=10_001,
                                max_blocks=10_000)
        narrow, wide = harness.width_sweep(config, [2, 32])
        assert [c.label for c in (narrow, wide)] == ["ae-width2", "ae-width32"]
        assert [p.blocks for p in narrow.points] == [
            p.blocks for p in wide.points]
        assert narrow.points[-1].ci_low > wide.points[-1].ci_high

    def test_degenerate_codeword_names_width_and_step(self, monkeypatch):
        degenerate_at_call(monkeypatch, 13)  # step 3 after width 16's 10
        with pytest.raises(DegenerateCodewordError,
                           match=r"^width 8: training at 7 dB, seed 0: "
                                 r"encoder output has zero norm "
                                 r"\(at step 3\)$") as info:
            harness.width_sweep(reduced_config(steps=10), [16, 8])
        assert info.value.step == 3

    def test_nonfinite_parameters_name_width_and_step(self, monkeypatch):
        real = nn.adam_step

        def poisoned(params, grads, state):
            params, state = real(params, grads, state)
            if state.step == 3:
                params = params.copy()
                params.flat[1, 0] = np.nan
            return params, state

        monkeypatch.setattr(nn, "adam_step", poisoned)
        with pytest.raises(DivergenceError,
                           match=r"^width 8: training at -1 dB, seed 5: "
                                 r"non-finite parameters after update "
                                 r"\(at step 3\)$") as info:
            harness.width_sweep(reduced_config(steps=10, seeds=(4, 5)), [8],
                                train_ebn0_db=-1.0)
        assert (info.value.step, info.value.model) == (3, 1)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^decoder_hidden: must be >= 1$") as info:
            harness.width_sweep(reduced_config(), [0])
        assert info.value.key == "decoder_hidden"


class TestEmitters:
    def test_sweep_csv_schema(self):
        config = reduced_config(steps=60)
        text = harness.sweep_to_csv(harness.run_sweep(config))
        lines = text.splitlines()
        assert lines[0] == ("system,label,train_ebn0_db,test_ebn0_db,blocks,"
                            "block_errors,bler,ci_low,ci_high,seed_count")
        first = lines[1].split(",")
        assert first[0] == "autoencoder"
        assert first[2] == "7.0"
        # baseline rows leave the train column empty
        baseline_row = [l for l in lines if l.startswith("hamming_mld")][0]
        assert baseline_row.split(",")[2] == ""

    def test_baseline_csv_closed_form_column(self):
        config = reduced_config(
            test_ebn0_start=2.0, test_ebn0_stop=4.0, test_ebn0_step=2.0,
            target_block_errors=30, max_blocks=10_000,
        )
        text = harness.baseline_to_csv(harness.baseline_curves(config))
        lines = text.splitlines()
        assert lines[0].endswith(",closed_form_bler")
        hard = [l for l in lines if l.startswith("hamming_hard")][0].split(",")
        assert float(hard[-1]) == pytest.approx(
            codecs.hamming_hard_bler_closed_form(float(hard[3])), rel=1e-12
        )
        mld = [l for l in lines if l.startswith("hamming_mld")][0].split(",")
        assert mld[-1] == ""

    def test_overlap_csv(self):
        rows = [shiftmetrics.compare_received_distributions(7.0, db, 4 / 7)
                for db in (-4.0, 0.0)]
        lines = harness.overlap_to_csv(rows).splitlines()
        assert lines[0] == "test_ebn0_db,overlap_pct,kl_nats"
        assert len(lines) == 3

    def test_history_csv(self):
        history = harness.TrainingHistory()
        history.record(100, 0.5)
        history.record(200, 0.25)
        assert harness.history_to_csv(history) == "step,loss\n100,0.5\n200,0.25\n"

    # hand-built rows: floats in repr form (0.1, 1e-05), an empty train
    # column on the baseline curves and an empty closed form for MLD
    AE = harness.BlerCurve("autoencoder", "ae-train+7dB", 7.0, 3, [
        harness.BlerPoint(0.1, 100000, 1), harness.BlerPoint(4.5, 2000, 200)])
    HARD = harness.BlerCurve("hamming_hard", "hamming-hard", None, 1, [
        harness.BlerPoint(4.0, 20000, 200)])
    MLD = harness.BlerCurve("hamming_mld", "hamming-mld", None, 1, [
        harness.BlerPoint(-4.0, 250, 200)])

    @staticmethod
    def interval(errors, blocks):
        """The ci_low and ci_high fields the CSV writes for these counts."""
        return ",".join(map(repr, harness.wilson_interval(errors, blocks)))

    def test_sweep_csv_bytes(self):
        assert harness.sweep_to_csv([self.AE, self.MLD]) == (
            "system,label,train_ebn0_db,test_ebn0_db,blocks,block_errors,"
            "bler,ci_low,ci_high,seed_count\n"
            "autoencoder,ae-train+7dB,7.0,0.1,100000,1,1e-05,"
            f"{self.interval(1, 100000)},3\n"
            "autoencoder,ae-train+7dB,7.0,4.5,2000,200,0.1,"
            f"{self.interval(200, 2000)},3\n"
            "hamming_mld,hamming-mld,,-4.0,250,200,0.8,"
            f"{self.interval(200, 250)},1\n")

    def test_baseline_csv_bytes(self):
        closed = codecs.hamming_hard_bler_closed_form(4.0)
        assert type(closed) is float
        assert harness.baseline_to_csv([self.HARD, self.MLD]) == (
            "system,label,train_ebn0_db,test_ebn0_db,blocks,block_errors,"
            "bler,ci_low,ci_high,seed_count,closed_form_bler\n"
            "hamming_hard,hamming-hard,,4.0,20000,200,0.01,"
            f"{self.interval(200, 20000)},1,{closed!r}\n"
            "hamming_mld,hamming-mld,,-4.0,250,200,0.8,"
            f"{self.interval(200, 250)},1,\n")

    def test_overlap_csv_bytes(self):
        # the percent column is 100.0 * overlap: 0.001 -> 0.1, 1.0 -> 100.0
        rows = [shiftmetrics.OverlapResult(-4.0, 0.001, 1e-05),
                shiftmetrics.OverlapResult(7.0, 1.0, 0.0)]
        assert harness.overlap_to_csv(rows) == (
            "test_ebn0_db,overlap_pct,kl_nats\n-4.0,0.1,1e-05\n"
            "7.0,100.0,0.0\n")

    def test_history_csv_bytes(self):
        history = harness.TrainingHistory()
        for step, loss in ((100, 0.1), (200, 1e-05), (250, 2.0)):
            history.record(step, loss)
        assert harness.history_to_csv(history) == (
            "step,loss\n100,0.1\n200,1e-05\n250,2.0\n")

    def test_plot_script_mentions_no_network(self):
        text = harness.PLOT_SCRIPT
        assert "matplotlib" in text
        assert "semilogy" in text


def poison_noise(monkeypatch, *at):
    """NaN noise for the model at each (step, model) of ``at`` in a lockstep,
    written over that model's noise row after its seed's shared draw.
    Returns the Eb/N0 of each poisoned model's channel, in draw order."""
    real = channels.draw_shared_disturbance
    poisoned_at = set(at)
    step, poisoned_dbs = [0], []

    def poisoned(specs, rng, out):
        fades = real(specs, rng, out)
        # each output is one model's row of the lockstep's noise array
        models = [(row.ctypes.data - row.base.ctypes.data) // row.nbytes
                  for row in out]
        if models[0] == 0:  # model 0's seed draws first in every step
            step[0] += 1
        for spec, row, model in zip(specs, out, models):
            if (step[0], model) in poisoned_at:
                row *= np.nan
                poisoned_dbs.append(spec.ebn0_db)
        return fades

    monkeypatch.setattr(channels, "draw_shared_disturbance", poisoned)
    return poisoned_dbs


class TestLockstep:
    """The models of a (train Eb/N0 x seed) grid train together on a leading
    model axis, each bit-identical to training alone."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"channel_kind": "correlated_awgn", "rho": 0.5},
        {"channel_kind": "rayleigh"},
        {"decoder_hidden": 12},
    ], ids=["awgn", "correlated_awgn", "rayleigh", "hidden12"])
    def test_lockstep_equals_training_alone(self, overrides):
        config = reduced_config(steps=120, loss_log_interval=20, **overrides)
        together = harness.train_autoencoder(config, (-4.0, 0.0, 7.0),
                                             (0, 1, 2))
        points = [(db, seed) for db in (-4.0, 0.0, 7.0) for seed in (0, 1, 2)]
        assert len(together) == len(points)
        for (db, seed), (params, history) in zip(points, together):
            alone, alone_history = harness.train_autoencoder(config, db, seed)
            assert params.flat.tobytes() == alone.flat.tobytes()
            assert history.losses == alone_history.losses
            assert history.steps == alone_history.steps

    def test_one_seed_tuple_is_the_lone_run(self):
        config = reduced_config(steps=80, loss_log_interval=20)
        [(params, history)] = harness.train_autoencoder(config, 7.0, (4,))
        alone, alone_history = harness.train_autoencoder(config, 7.0, 4)
        assert params.flat.tobytes() == alone.flat.tobytes()
        assert history.losses == alone_history.losses

    def test_train_points_with_one_seed_are_their_lone_runs(self):
        config = reduced_config(steps=80, loss_log_interval=20)
        together = harness.train_autoencoder(config, (0.0, 7.0), 4)
        assert len(together) == 2
        for db, (params, history) in zip((0.0, 7.0), together):
            alone, alone_history = harness.train_autoencoder(config, db, 4)
            assert params.flat.tobytes() == alone.flat.tobytes()
            assert history.losses == alone_history.losses

    def test_one_seed_shares_messages_and_normals_across_train_points(
            self, monkeypatch):
        # both models of seed 3 see one message draw and one standard-normal
        # draw per step, each scaled by its own model's sigma
        config = reduced_config(steps=3)
        real = nn.loss_and_gradients_given
        seen = []

        def capture(params, messages, noise, fade, work):
            seen.append((messages.copy(), noise.copy()))
            return real(params, messages, noise, fade, work)

        monkeypatch.setattr(nn, "loss_and_gradients_given", capture)
        dbs = (0.0, 7.0)
        harness.train_autoencoder(config, dbs, 3)
        msg_rng = substream(3, "train")
        noise_rng = substream(3, "channel", "train")
        assert len(seen) == config.steps
        for messages, noise in seen:
            want = msg_rng.integers(0, config.message_count, config.batch_size)
            normals = noise_rng.standard_normal(
                (config.batch_size, config.channel_uses))
            for k, db in enumerate(dbs):
                sigma = np.sqrt(config.channel_spec(db).sigma2)
                assert np.array_equal(messages[k], want)
                assert noise[k].tobytes() == (normals * sigma).tobytes()

    @pytest.mark.parametrize("dbs, seeds, name", [
        ((), (0, 1), "train_ebn0_db"),
        (7.0, (), "seed"),
    ], ids=["no-train-points", "no-seeds"])
    def test_empty_grid_axis_is_named(self, dbs, seeds, name):
        with pytest.raises(ConfigurationError,
                           match=rf"^{name}: needs at least one value") as info:
            harness.train_autoencoder(reduced_config(steps=1), dbs, seeds)
        assert info.value.key == name

    def test_lockstep_failure_names_point_seed_and_step(self, monkeypatch):
        poison_noise(monkeypatch, (3, 1))
        with pytest.raises(DivergenceError,
                           match=r"^training at 7 dB, seed 1: non-finite "
                                 r"loss \(at step 3\)$") as info:
            harness.run_sweep(reduced_config(steps=10, seeds=(0, 1, 2)))
        assert info.value.step == 3

    # the sweep trains (-4, 0, 7 dB) x seeds (5, 6) as models 0..5
    @pytest.mark.parametrize("at, named, step, model, dbs", [
        # model 3 is 0 dB, seed 6
        (((3, 3),), "0 dB, seed 6", 3, 3, [0.0]),
        # 7 dB, seed 6 fails at step 2, before -4 dB, seed 5 at step 4,
        # which is never reached: the earliest step stops every point
        (((4, 0), (2, 5)), "7 dB, seed 6", 2, 5, [7.0]),
    ], ids=["one-failure", "earliest-of-two"])
    def test_mixed_lockstep_failure_names_its_own_point(
            self, monkeypatch, at, named, step, model, dbs):
        poisoned = poison_noise(monkeypatch, *at)
        with pytest.raises(DivergenceError,
                           match=rf"^training at {named}: non-finite "
                                 rf"loss \(at step {step}\)$") as info:
            harness.run_sweep(reduced_config(
                steps=10, train_ebn0_db=(-4.0, 0.0, 7.0), seeds=(5, 6)))
        assert (info.value.step, info.value.model) == (step, model)
        assert poisoned == dbs

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's minor page-fault count")
    def test_warm_lockstep_faults_in_no_pages_per_step(self):
        # Per-step temporaries of 15 models exceed the allocator's mmap
        # threshold, so allocating them every step mapped and faulted in
        # about 270 pages per step.  Kept in the workspace, a run faults in
        # only the workspace's own first touch, about 15 pages per step.
        # The allocator's thresholds move with what a process has freed
        # before, so the run is measured in a fresh interpreter.
        script = textwrap.dedent("""
            import resource
            from aecomm import ExperimentConfig, harness
            config = ExperimentConfig(steps=50, loss_log_interval=50)
            seeds = tuple(range(15))
            harness.train_autoencoder(config, 7.0, seeds)  # warm
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            harness.train_autoencoder(config, 7.0, seeds)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = Path(harness.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, check=True)
        assert int(done.stdout) < 50 * 50

    def test_lockstep_nonfinite_parameters_name_the_seed(self, monkeypatch):
        real = nn.adam_step

        def poisoned(params, grads, state):
            params, state = real(params, grads, state)
            if state.step == 4:
                params = params.copy()
                params.flat[2, 0] = np.inf
            return params, state

        monkeypatch.setattr(nn, "adam_step", poisoned)
        with pytest.raises(DivergenceError,
                           match=r"^training at -1.5 dB, seed 9: non-finite "
                                 r"parameters after update \(at step 4\)$"):
            harness.train_autoencoder(reduced_config(steps=10), -1.5,
                                      (5, 7, 9))


class TestBaselineChannel:
    """The baselines run on the config's channel kind."""

    def test_rayleigh_config_moves_the_hamming_curves(self):
        grid = dict(test_ebn0_start=4.0, test_ebn0_stop=8.0)
        awgn = {c.system: c for c in harness.baseline_curves(
            reduced_config(**grid))}
        faded = {c.system: c for c in harness.baseline_curves(
            reduced_config(channel_kind="rayleigh", **grid))}
        for system in ("hamming_hard", "hamming_mld", "uncoded"):
            assert faded[system].points != awgn[system].points
            assert faded[system].points[-1].bler > awgn[system].points[-1].bler

    def test_correlated_config_uses_its_rho(self):
        config = reduced_config(channel_kind="correlated_awgn", rho=0.5,
                                test_ebn0_start=4.0, test_ebn0_stop=4.0)
        [point] = harness.baseline_curves(config)[1].points
        spec = ChannelSpec("correlated_awgn", 4.0, 4 / 7, rho=0.5)
        assert point == harness.estimate_bler(
            harness.hamming_mld_system(spec), 4.0,
            harness.StopRule(50, 20_000),
            (0, "bler", "baseline-channel", "4"))

    def test_closed_forms_only_on_awgn(self):
        config = reduced_config(channel_kind="rayleigh", test_ebn0_start=4.0,
                                test_ebn0_stop=8.0)
        curves = harness.baseline_curves(config)
        rows = harness.baseline_to_csv(curves, "rayleigh").splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)
        rows = harness.baseline_to_csv(curves, "awgn").splitlines()[1:]
        assert not rows[0].endswith(",")  # hamming_hard has a closed form
