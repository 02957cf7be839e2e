import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from aecomm import codecs
from aecomm.rng import substream


def brute_force_mld(y):
    """Independent reference decoder: explicit loop over all codewords."""
    y = np.atleast_2d(y)
    out = np.empty(y.shape[0], dtype=np.int64)
    for i, row in enumerate(y):
        best, best_dist = -1, np.inf
        for m in range(16):
            bits = codecs.message_to_bits(np.array(m))
            word = 1.0 - 2.0 * codecs.hamming_encode(bits)
            dist = float(((row - word) ** 2).sum())
            if dist < best_dist:
                best, best_dist = m, dist
        out[i] = best
    return out


class TestBits:
    def test_round_trip_all_messages(self):
        msgs = np.arange(16)
        assert np.array_equal(codecs.bits_to_message(codecs.message_to_bits(msgs)), msgs)

    def test_msb_first(self):
        assert np.array_equal(codecs.message_to_bits(np.array(9)), [1, 0, 0, 1])
        assert np.array_equal(codecs.message_to_bits(np.array(1)), [0, 0, 0, 1])

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
    def test_round_trip_random_batches(self, values):
        msgs = np.array(values)
        assert np.array_equal(
            codecs.bits_to_message(codecs.message_to_bits(msgs)), msgs
        )


class TestHammingCode:
    def test_generator_parity_orthogonal(self):
        assert np.all((codecs.GENERATOR @ codecs.PARITY_CHECK.T) % 2 == 0)

    def test_systematic_prefix(self):
        bits = codecs.message_to_bits(np.arange(16))
        words = codecs.hamming_encode(bits)
        assert np.array_equal(words[:, :4], bits)

    def test_weight_distribution(self):
        # distance-3 code with weight enumerator 1, 7, 7, 1 at weights 0,3,4,7
        weights = codecs.CODEBOOK_BITS.sum(axis=1)
        counts = np.bincount(weights, minlength=8)
        assert np.array_equal(counts, [1, 0, 0, 7, 7, 0, 0, 1])

    def test_encode_linearity(self):
        bits = codecs.message_to_bits(np.arange(16))
        for a in range(16):
            for b in range(16):
                combined = codecs.hamming_encode((bits[a] + bits[b]) % 2)
                separate = (codecs.hamming_encode(bits[a]) + codecs.hamming_encode(bits[b])) % 2
                assert np.array_equal(combined, separate)


class TestHardDecode:
    def test_corrects_every_single_bit_error(self):
        for m in range(16):
            word = codecs.CODEBOOK_BPSK[m]
            for flip in range(-1, 7):  # -1 = clean word
                y = word.copy()
                if flip >= 0:
                    y[flip] = -y[flip]
                decoded = codecs.hamming_hard_decode(y)
                assert np.array_equal(decoded, codecs.CODEBOOK_BITS[m, :4]), (m, flip)

    def test_all_128_words_match_syndrome_decoding(self):
        # reference: flip the position whose parity-check column equals the
        # syndrome, then keep the systematic bits
        columns = {tuple(col): j for j, col in
                   enumerate(codecs.PARITY_CHECK.T.tolist())}
        words = (np.arange(128)[:, None] >> np.arange(6, -1, -1)) & 1
        want = []
        for word in words:
            word = word.copy()
            position = columns.get(tuple((codecs.PARITY_CHECK @ word) % 2))
            if position is not None:
                word[position] ^= 1
            want.append(word[:4])
        # exactly 0.0 slices to bit 0, like bpsk_demap
        y = np.where(words == 1, -0.3, 0.0)
        assert np.array_equal(codecs.hamming_hard_decode(y), want)
        assert np.array_equal(codecs.hamming_hard_decode(y[:, None, :]),
                              np.array(want)[:, None, :])

    def test_batch_shape(self):
        y = codecs.CODEBOOK_BPSK.copy()
        assert codecs.hamming_hard_decode(y).shape == (16, 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            codecs.hamming_hard_decode(np.ones(6))


class TestMldDecode:
    def test_matches_brute_force_on_noisy_batches(self):
        rng = substream(0, "mld-test")
        y = codecs.CODEBOOK_BPSK[rng.integers(0, 16, 200)] + rng.normal(0, 0.8, (200, 7))
        assert np.array_equal(codecs.hamming_mld_message(y), brute_force_mld(y))

    @pytest.mark.parametrize("sigma", [0.3, 0.8, 1.6])
    def test_matches_brute_force_across_noise_levels(self, sigma):
        rng = substream(1, "mld-sigma", str(sigma))
        y = codecs.CODEBOOK_BPSK[rng.integers(0, 16, 1000)] + rng.normal(0, sigma, (1000, 7))
        assert np.array_equal(codecs.hamming_mld_message(y), brute_force_mld(y))

    def test_pair_midpoints_tie_break_like_brute_force(self):
        # (c_a + c_b) / 2 is equidistant from c_a and c_b, and every sum is
        # exact in floating point, so these are true ties
        a, b = np.triu_indices(16, k=1)
        assert a.size == 120
        y = (codecs.CODEBOOK_BPSK[a] + codecs.CODEBOOK_BPSK[b]) / 2
        decoded = codecs.hamming_mld_message(y)
        assert np.array_equal(decoded, brute_force_mld(y))
        assert np.all(decoded <= a)

    def test_clean_codewords_decode_exactly(self):
        assert np.array_equal(codecs.hamming_mld_message(codecs.CODEBOOK_BPSK), np.arange(16))

    def test_tie_breaks_to_lowest_index(self):
        assert codecs.hamming_mld_message(np.zeros(7)) == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            codecs.hamming_mld_message(np.full(7, np.inf))


class TestBpsk:
    def test_mapping(self):
        assert np.array_equal(codecs.bpsk_map(np.array([0, 1, 0])), [1.0, -1.0, 1.0])

    def test_demap_boundary_zero_is_bit_zero(self):
        assert np.array_equal(codecs.bpsk_demap(np.array([0.0, -0.0, 0.1, -0.1])), [0, 0, 0, 1])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
    def test_map_demap_round_trip(self, bits):
        arr = np.array(bits)
        assert np.array_equal(codecs.bpsk_demap(codecs.bpsk_map(arr)), arr)


class TestClosedForms:
    def test_q_function_known_values(self):
        assert codecs.q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        assert codecs.q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
        assert codecs.q_function(-1.0) == pytest.approx(1 - 0.15865525393145707, abs=1e-12)

    def test_q_function_lower_tail_known_values(self):
        # Q(-x) is the normal CDF at x
        assert codecs.q_function(-0.0) == pytest.approx(0.5, abs=1e-15)
        assert codecs.q_function(-1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert codecs.q_function(8.0) == pytest.approx(norm.cdf(-8.0), rel=1e-10)

    def test_block_error_matches_binomial_tail(self):
        # independent route: direct sum over >= 2 flips out of 7
        for p in (0.001, 0.02, 0.1, 0.4):
            want = sum(
                math.comb(7, k) * p**k * (1 - p) ** (7 - k) for k in range(2, 8)
            )
            got = codecs.hard_decision_block_error_from_flip_prob(p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_hard_bler_closed_form_composition(self):
        for db in (0.0, 4.0, 8.0):
            p = codecs.q_function(np.sqrt(2 * (4 / 7) * 10 ** (db / 10)))
            want = codecs.hard_decision_block_error_from_flip_prob(p)
            assert codecs.hamming_hard_bler_closed_form(db) == pytest.approx(want, rel=1e-12)

    def test_uncoded_bler_closed_form(self):
        for db in (0.0, 4.0, 8.0):
            p = codecs.q_function(np.sqrt(2 * 10 ** (db / 10)))
            want = 1 - (1 - p) ** 4
            assert codecs.uncoded_bpsk_bler_closed_form(db) == pytest.approx(want, rel=1e-12)

    def test_closed_forms_decrease_with_snr(self):
        db = np.linspace(-4, 10, 30)
        hard = codecs.hamming_hard_bler_closed_form(db)
        unc = codecs.uncoded_bpsk_bler_closed_form(db)
        assert np.all(np.diff(hard) < 0)
        assert np.all(np.diff(unc) < 0)

    @settings(max_examples=30)
    @given(st.floats(min_value=-6.0, max_value=12.0))
    def test_hard_bler_in_unit_interval(self, db):
        value = codecs.hamming_hard_bler_closed_form(db)
        assert 0.0 <= value <= 1.0


class TestMonteCarloAgreement:
    def test_hard_decode_matches_closed_form_at_moderate_snr(self):
        # one fixed-seed draw, loose 3-sigma style band
        db, blocks = 2.0, 120_000
        rng = substream(2, "mc-hard")
        msgs = rng.integers(0, 16, blocks)
        sigma = np.sqrt(1 / (2 * (4 / 7) * 10 ** (db / 10)))
        y = codecs.CODEBOOK_BPSK[msgs] + sigma * rng.standard_normal((blocks, 7))
        decoded = codecs.bits_to_message(codecs.hamming_hard_decode(y))
        bler = np.mean(decoded != msgs)
        want = codecs.hamming_hard_bler_closed_form(db)
        stderr = np.sqrt(want * (1 - want) / blocks)
        assert abs(bler - want) < 4 * stderr
