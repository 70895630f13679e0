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
streams: the word at counter c is ``mix64(c * G + key)`` mod 2**64, G the
golden-ratio constant.  A row of consecutive counters starts from one
base ``start * G + key`` and adds the precomputed steps ``j * G``.  The
mixing is done in place on uint64 buffers, one piece of about
``MIX_PIECE_WORDS`` at a time: it is memory-bandwidth bound, not compute
bound, and its ten passes over a cache-sized piece run about twice as
fast as ten passes over a whole multi-megabyte draw matrix.

Samplers read each word as two 32-bit keys (``word_keys``): key 2j is
word j's low half and key 2j + 1 its high half, so a draw over N units
takes ceil(N / 2) words.  ``STREAM_VERSION`` names this definition of the
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

# The version of the draw definition: the word function, two keys per
# word, and the samplers' use of them (``mechanisms``).  Bump it whenever
# a draw changes for a given (seed, domain, index), which is whenever a
# pinned draw digest in the tests has to change.
STREAM_VERSION = 2


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


@lru_cache(maxsize=8)
def _steps(width: int) -> np.ndarray:
    """``j * G`` mod 2**64 for j < width: a row's offsets from its base."""
    steps = np.arange(width, dtype=np.uint64) * _GOLDEN
    steps.flags.writeable = False
    return steps


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
                   out: np.ndarray | None = None) -> np.ndarray:
        """Words ``0 .. width - 1`` of each draw's row, one row per index."""
        indices = np.asarray(indices, dtype=np.uint64)
        return self.word_block_raw(indices * np.uint64(width), width, out)

    def word_block_raw(self, starts: np.ndarray, width: int,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Random words at counters ``starts[r] + j`` (mod 2**64), j < width.

        Returns a (len(starts), width) uint64 array, row r for ``starts[r]``:
        ``out`` when given, which must be a C-contiguous array of that shape
        and dtype, else a new array.
        """
        starts = np.asarray(starts, dtype=np.uint64).reshape(-1)
        bases = starts * _GOLDEN + self.key
        steps = _steps(width)
        if out is None:
            out = np.empty((len(starts), width), dtype=np.uint64)
        elif (out.shape != (len(starts), width) or out.dtype != np.uint64
              or not out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous ({len(starts)}, {width}) "
                             "uint64 array")
        rows = max(1, MIX_PIECE_WORDS // max(width, 1))
        for lo in range(0, len(starts), rows):
            for col in range(0, width, MIX_PIECE_WORDS):
                piece = out[lo:lo + rows, col:col + MIX_PIECE_WORDS]
                np.add(bases[lo:lo + rows, None], steps[col:col + MIX_PIECE_WORDS],
                       out=piece)
                _mix64_inplace(piece)
        return out

    def generator(self, index: int = 0) -> np.random.Generator:
        """A conventional numpy Generator seeded from this substream.

        Used where sequential sampling is more natural than counter
        blocks (synthetic data generation); same reproducibility rules.
        """
        entropy = (int(self.seed) & _MASK64, int(self.domain) & _MASK64,
                   int(index) & _MASK64)
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def word_keys(words: np.ndarray) -> np.ndarray:
    """The 32-bit keys of a (rows, W) word block, as a (rows, 2W) array.

    Key 2j of a row is word j's low half and key 2j + 1 its high half; on
    a little-endian host this is a view of ``words``.
    """
    return words.astype("<u8", copy=False).view("<u4")


def bernoulli_thresholds(probabilities: np.ndarray) -> np.ndarray:
    """uint32 acceptance thresholds so that (key < t) ~ Bernoulli(p).

    Quantizes each probability down to a multiple of 2**-32, clamped to
    [2**-32, 1 - 2**-32]: an error of at most 2**-32 (2.3e-10), which is
    2.3e-4 of a probability of 1e-6.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    t = np.clip(np.floor(p * 2.0**32), 1.0, 2.0**32 - 1.0)
    return t.astype(np.uint32)
