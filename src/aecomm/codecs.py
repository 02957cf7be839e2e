"""Classical baselines: Hamming(7,4) over BPSK, uncoded BPSK, closed forms.

Bit-index convention: message index m in [0, 16) maps to 4 bits MSB first,
so m = 13 = 0b1101 -> (1, 1, 0, 1).  All coders accept a single block or a
leading batch axis.
"""

import numpy as np

K = 4
N = 7
RATE = K / N

# Systematic generator G = [I4 | P] and parity check H = [P^T | I3]; golden
# data, fixed once.  Parities: p1 = m1^m2^m4, p2 = m1^m3^m4, p3 = m2^m3^m4.
GENERATOR = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int64,
)

PARITY_CHECK = np.array(
    [
        [1, 1, 0, 1, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 0],
        [0, 1, 1, 1, 0, 0, 1],
    ],
    dtype=np.int64,
)


def message_to_bits(message) -> np.ndarray:
    """Message index -> 4 bits, MSB first.  Accepts scalars or arrays."""
    message = np.asarray(message, dtype=np.int64)
    if np.any((message < 0) | (message >= 2**K)):
        raise ValueError(f"message index out of range [0, {2 ** K})")
    shifts = np.arange(K - 1, -1, -1)
    return (message[..., None] >> shifts) & 1


def bits_to_message(bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64)
    weights = 1 << np.arange(K - 1, -1, -1)
    return bits @ weights


def hamming_encode(bits) -> np.ndarray:
    """4 message bits -> 7-bit systematic codeword."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1] != K:
        raise ValueError(f"expected {K} message bits, got shape {bits.shape}")
    return (bits @ GENERATOR) % 2


CODEBOOK_BITS = hamming_encode(message_to_bits(np.arange(2**K)))


def bpsk_map(bits) -> np.ndarray:
    """Bit 0 -> +1.0, bit 1 -> -1.0 (unit energy per channel use)."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def bpsk_demap(values) -> np.ndarray:
    """Sign slicer; exactly 0.0 demaps to bit 0."""
    values = np.asarray(values, dtype=float)
    return (values < 0.0).astype(np.int64)


CODEBOOK_BPSK = bpsk_map(CODEBOOK_BITS)


# Hamming(7,4) is a perfect code: each of the 128 hard-decision words lies
# within distance 1 of exactly one codeword.  Row w holds that codeword's
# message bits, for the word whose bits (MSB first) spell w.
_WORD_WEIGHTS = 1 << np.arange(N - 1, -1, -1)
_WORDS = (np.arange(2**N)[:, None] & _WORD_WEIGHTS) != 0
_HARD_DECODE_TABLE = CODEBOOK_BITS[
    (_WORDS[:, None, :] != CODEBOOK_BITS).sum(axis=-1).argmin(axis=-1), :K]


def hamming_hard_decode(y) -> np.ndarray:
    """Sign-slice like ``bpsk_demap``, correct at most one bit, return the
    systematic 4 bits; one table lookup per block."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != N:
        raise ValueError(f"expected {N} channel values, got shape {y.shape}")
    return _HARD_DECODE_TABLE[(y < 0.0) @ _WORD_WEIGHTS]


def hamming_mld_message(y) -> np.ndarray:
    """Minimum-Euclidean-distance decoding over all 16 BPSK codewords,
    returned as message indices.

    Every codeword has ||c||^2 = 7, so ||y - c||^2 = ||y||^2 - 2 y.c + 7 and
    the nearest codeword is the one of largest correlation y.c.  argmax
    returns the first maximum, so the lowest message index wins ties.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != N:
        raise ValueError(f"expected {N} channel values, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("mld input must be finite")
    return (y @ CODEBOOK_BPSK.T).argmax(axis=-1)


def q_function(x):
    """Standard normal upper-tail probability."""
    from scipy.special import erfc  # imported on first use: keeps start-up light

    x = np.asarray(x, dtype=float)
    out = 0.5 * erfc(x / np.sqrt(2.0))
    return out if out.ndim else float(out)


def hard_decision_block_error_from_flip_prob(p):
    """Block error rate of one-error-correcting hard decoding over 7 uses
    with i.i.d. bit flip probability p: 1 - (1-p)^7 - 7 p (1-p)^6."""
    p = np.asarray(p, dtype=float)
    out = 1.0 - (1.0 - p) ** 7 - 7.0 * p * (1.0 - p) ** 6
    return out if out.ndim else float(out)


def hamming_hard_bler_closed_form(ebn0_db):
    """Closed-form hard-decision BLER at rate 4/7 over AWGN."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    p = q_function(np.sqrt(2.0 * RATE * ebn0))
    return hard_decision_block_error_from_flip_prob(p)


def uncoded_bpsk_bler_closed_form(ebn0_db):
    """BLER of 4 uncoded BPSK bits at per-info-bit energy Eb:
    1 - (1 - Q(sqrt(2 Eb/N0)))^4."""
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    p = q_function(np.sqrt(2.0 * ebn0))
    out = 1.0 - (1.0 - p) ** K
    return out if np.ndim(out) else float(out)
