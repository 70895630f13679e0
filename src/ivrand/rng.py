"""Counter-based random streams for reproducible Monte Carlo draws.

Every Monte Carlo draw m owns a fixed block of 64-bit counter words, and
the random words for that draw are a pure function of (seed, domain, m,
word index).  Draw m is therefore reproducible regardless of chunking,
execution order, or the number of threads evaluating draws, and
concurrent generation yields exactly the same draws as sequential
generation.

The word function is the SplitMix64 output sequence (a counter-mixing
generator that passes BigCrush), keyed once per (seed, domain) through
``numpy.random.SeedSequence`` so distinct domains give unrelated
streams.  The mixing is done in place on uint64 buffers, one piece of
``MIX_PIECE_WORDS`` at a time: it is memory-bandwidth bound, not compute
bound, and its ten passes over a cache-sized piece run about twice as
fast as ten passes over a whole multi-megabyte draw matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Stream domains. Distinct consumers of the same seed must not share one.
DOMAIN_TEST_INSTRUMENT = 0
DOMAIN_TEST_EXPOSURE = 1
DOMAIN_BT_INSTRUMENT = 2
DOMAIN_BT_EXPOSURE = 3
DOMAIN_SYNTH = 16

MIX_PIECE_WORDS = 1 << 15   # 256 KiB


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array."""
    scratch = np.right_shift(x, np.uint64(30))
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MIX1, out=x)
    np.right_shift(x, np.uint64(27), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    np.multiply(x, _MIX2, out=x)
    np.right_shift(x, np.uint64(31), out=scratch)
    np.bitwise_xor(x, scratch, out=x)
    return x


def stream_key(seed: int, domain: int) -> np.uint64:
    """Derive the 64-bit stream key for a (seed, domain) pair."""
    entropy = (int(seed) & _MASK64, int(domain) & _MASK64)
    return np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0]


@dataclass(frozen=True)
class DrawStream:
    """Handle for one family of counter-based substreams.

    ``word_block(indices, width)`` returns one row of ``width`` random
    uint64 words per draw index; row contents depend only on
    (seed, domain, index), never on which other indices are requested.
    """

    seed: int
    domain: int = 0

    @cached_property
    def key(self) -> np.uint64:
        return stream_key(self.seed, self.domain)

    def word_block(self, indices: np.ndarray, width: int,
                   columns: np.ndarray | None = None) -> np.ndarray:
        """Words ``0 .. width - 1`` of each draw's row, one row per index.

        ``columns``, a permutation of ``range(width)``, returns each row's
        words in that order instead: column j holds word ``columns[j]``.
        """
        indices = np.asarray(indices, dtype=np.uint64)
        if columns is None:
            columns = np.arange(width, dtype=np.uint64)
        columns = np.asarray(columns, dtype=np.uint64)
        counters = indices[:, None] * np.uint64(width) + columns
        return self.word_block_raw(counters, reuse=True)

    def word_block_raw(self, counters: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Random words at explicit counter positions (same shape).

        With ``reuse`` the counter buffer is consumed as scratch space.
        """
        x = np.asarray(counters, dtype=np.uint64)
        if not reuse or not x.flags.c_contiguous:
            x = x.copy()
        key = self.key
        flat = x.reshape(-1)
        for lo in range(0, flat.size, MIX_PIECE_WORDS):
            piece = flat[lo:lo + MIX_PIECE_WORDS]
            np.multiply(piece, _GOLDEN, out=piece)
            np.add(piece, key, out=piece)
            _mix64_inplace(piece)
        return x

    def generator(self, index: int = 0) -> np.random.Generator:
        """A conventional numpy Generator seeded from this substream.

        Used where sequential sampling is more natural than counter
        blocks (synthetic data generation); same reproducibility rules.
        """
        entropy = (int(self.seed) & _MASK64, int(self.domain) & _MASK64,
                   int(index) & _MASK64)
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def bernoulli_thresholds(probabilities: np.ndarray) -> np.ndarray:
    """uint64 acceptance thresholds so that (word < t) ~ Bernoulli(p).

    Quantizes each probability to a multiple of 2**-64, indistinguishable
    from the real thing at any attainable draw count.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    t = np.floor(p * 2.0**64)
    largest = np.nextafter(2.0**64, 0.0)   # biggest float castable to uint64
    t = np.where(t >= 2.0**64, largest, np.maximum(t, 1.0))
    return t.astype(np.uint64)
