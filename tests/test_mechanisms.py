"""Sampler distribution checks against enumeration oracles."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from ivrand import (
    CapExceededError,
    DrawStream,
    MechanismError,
    MechanismSpec,
    draw_bernoulli,
    draw_block,
    draw_complete,
    enumerate_complete,
)
from ivrand import rng as rng_module
from ivrand.errors import RedrawLimitError
from ivrand.mechanisms import (MAX_REDRAWS, DrawTally, draw_batch, enumerate_matrix,
                               prepare_sampler)


def _assignment_key(values) -> tuple:
    return tuple(int(v) for v in values)


class TestDrawComplete:
    def test_two_units(self):
        stream = DrawStream(seed=1)
        seen = {_assignment_key(draw_complete(2, 1, stream, index=m).values)
                for m in range(50)}
        assert seen == {(1, 0), (0, 1)}

    def test_invalid_counts(self):
        stream = DrawStream(seed=1)
        with pytest.raises(MechanismError):
            draw_complete(4, 4, stream)
        with pytest.raises(MechanismError):
            draw_complete(4, 0, stream)

    def test_treated_count_always_exact(self):
        stream = DrawStream(seed=2)
        draws = draw_batch(MechanismSpec.complete(3), 9, stream,
                           np.arange(2000, dtype=np.uint64))
        assert (draws.sum(axis=1) == 3).all()

    def test_frequency_oracle_n5_k2(self):
        """Every C(5,2) assignment appears with frequency 0.1 +- 0.005."""
        stream = DrawStream(seed=3)
        draws = draw_batch(MechanismSpec.complete(2), 5, stream,
                           np.arange(100_000, dtype=np.uint64))
        combos = [_assignment_key(v.values) for v in enumerate_complete(5, 2)]
        keys = [tuple(row) for row in draws.tolist()]
        counts = {c: 0 for c in combos}
        for k in keys:
            counts[k] += 1
        freqs = np.array([counts[c] for c in combos]) / 100_000
        assert freqs.shape == (10,)
        assert np.all(np.abs(freqs - 0.1) <= 0.005)
        gof = chisquare(np.array([counts[c] for c in combos]))
        assert gof.pvalue > 0.001

    def test_determinism_and_batch_consistency(self):
        stream = DrawStream(seed=9, domain=4)
        batch = draw_batch(MechanismSpec.complete(4), 10, stream,
                           np.arange(20, dtype=np.uint64))
        for m in (0, 7, 19):
            single = draw_complete(10, 4, stream, index=m)
            assert np.array_equal(single.values, batch[m])

    def test_chunking_invariance(self):
        stream = DrawStream(seed=10)
        spec = MechanismSpec.complete(5)
        whole = draw_batch(spec, 12, stream, np.arange(100, dtype=np.uint64))
        pieces = np.concatenate([
            draw_batch(spec, 12, stream, np.arange(lo, lo + 20, dtype=np.uint64))
            for lo in range(0, 100, 20)
        ])
        assert np.array_equal(whole, pieces)


class TestDrawBlock:
    def test_two_blocks_support(self):
        labels = ("a", "a", "b", "b")
        stream = DrawStream(seed=4)
        seen = {_assignment_key(draw_block(labels, {"a": 1, "b": 1}, stream, m).values)
                for m in range(200)}
        expected = {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
        assert seen == expected

    def test_resolved_spec_shares_the_block_codes(self):
        spec = MechanismSpec.block(("a", "b", "a", "b"))
        resolved = spec.resolved(np.array([1, 0, 0, 1]))
        assert resolved.per_block_treated == {"a": 1, "b": 1}
        assert resolved.block_codes is spec.block_codes

    def test_single_block_matches_complete_distribution(self):
        stream = DrawStream(seed=5)
        draws = draw_batch(MechanismSpec.block(("x",) * 6, {"x": 2}), 6, stream,
                           np.arange(30_000, dtype=np.uint64))
        counts = {}
        for row in draws.tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == 15
        gof = chisquare(np.array(sorted(counts.values())))
        assert gof.pvalue > 0.001

    def test_nine_assignment_frequency_oracle(self):
        labels = ("a",) * 3 + ("b",) * 3
        stream = DrawStream(seed=6)
        draws = draw_batch(MechanismSpec.block(labels, {"a": 1, "b": 1}), 6, stream,
                           np.arange(90_000, dtype=np.uint64))
        counts = {}
        for row in draws.tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == 9
        freqs = np.array(list(counts.values())) / 90_000
        assert np.all(np.abs(freqs - 1 / 9) <= 0.006)

    def test_unit_order_preserved(self):
        labels = ("a", "b", "a", "b")
        stream = DrawStream(seed=7)
        draw = draw_block(labels, {"a": 1, "b": 1}, stream)
        values = draw.values
        assert values[[0, 2]].sum() == 1   # block a occupies its own positions
        assert values[[1, 3]].sum() == 1

    def test_inconsistent_counts(self):
        stream = DrawStream(seed=8)
        with pytest.raises(MechanismError):
            draw_block(("a", "a", "b"), {"a": 1}, stream)
        with pytest.raises(MechanismError):
            draw_block(("a", "a"), {"a": 2}, stream)

    def test_observed_count_resolution(self):
        spec = MechanismSpec.block(("a", "a", "b", "b"))
        resolved = spec.resolved(np.array([1, 0, 1, 1]))
        assert resolved.per_block_treated == {"a": 1, "b": 2}


class TestDrawBernoulli:
    def test_symmetric_two_units(self):
        stream = DrawStream(seed=11)
        seen = [
            _assignment_key(draw_bernoulli([0.5, 0.5], stream, index=m).values)
            for m in range(4000)
        ]
        assert set(seen) == {(1, 0), (0, 1)}
        frac = np.mean([s == (1, 0) for s in seen])
        assert abs(frac - 0.5) < 0.05

    def test_marginal_oracle_conditional_enumeration(self):
        """Conditional-on-nondegenerate marginals from the 4-outcome table.

        p = (0.9, 0.1): accepted outcomes (1,0) w.p. .81, (0,1) w.p. .01,
        (1,1) and (0,0) rejected, so P(unit1 treated | accepted) = 81/82.
        """
        stream = DrawStream(seed=12)
        tally = DrawTally()
        draws = draw_batch(MechanismSpec.bernoulli([0.9, 0.1]), 2, stream,
                           np.arange(100_000, dtype=np.uint64), tally=tally)
        marginal = draws[:, 0].mean()
        assert abs(marginal - 0.81 / 0.82) <= 0.005
        # rejection rate matches the degenerate mass 0.18
        rate = tally.redraws / (100_000 + tally.redraws)
        assert abs(rate - 0.18) < 0.01

    def test_never_degenerate(self):
        stream = DrawStream(seed=13)
        draws = draw_batch(MechanismSpec.bernoulli([0.05] * 6), 6, stream,
                           np.arange(5000, dtype=np.uint64))
        sums = draws.sum(axis=1)
        assert sums.min() >= 1 and sums.max() <= 5

    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.02, 0.03, 0.01],
                                   [0.97, 0.99, 0.98, 0.96], [0.1, 0.9]])
    def test_degenerate_rows_are_those_of_the_sum_rule(self, p):
        # tiny N and extreme propensities make degenerate attempts common; an
        # attempt is redrawn exactly when its treated count is 0 or N
        n, m = len(p), 300
        spec = MechanismSpec.bernoulli(p)
        stream = DrawStream(seed=16)
        tally = DrawTally()
        draws = draw_batch(spec, n, stream, np.arange(m, dtype=np.uint64), tally=tally)
        thresholds = prepare_sampler(spec, n).thresholds
        width = (n + 1) // 2
        expected, redraws = [], 0
        for index in range(m):
            for attempt in itertools.count():
                start = np.array([(index * (MAX_REDRAWS + 1) + attempt) * width], np.uint64)
                keys = rng_module.word_keys(stream.word_block_raw(start, width))[0, :n]
                row = (keys < thresholds).astype(np.int8)
                if 0 < row.sum() < n:
                    break
                redraws += 1
            expected.append(row)
        assert np.array_equal(draws, np.array(expected))
        assert tally.redraws == redraws
        assert redraws > m // 10

    def test_extreme_propensities_exhaust_redraws(self):
        stream = DrawStream(seed=14)
        spec = MechanismSpec.bernoulli([1e-9] * 4)
        with pytest.raises(RedrawLimitError):
            draw_batch(spec, 4, stream, np.arange(50, dtype=np.uint64))

    def test_boundary_propensity_rejected(self):
        stream = DrawStream(seed=15)
        with pytest.raises(MechanismError):
            draw_bernoulli([0.0, 0.5], stream)
        with pytest.raises(MechanismError):
            draw_bernoulli([1.0, 0.5], stream)


class TestEnumerateComplete:
    def test_counts(self):
        assert len(list(enumerate_complete(4, 2))) == 6
        vecs = {tuple(int(v) for v in a.values) for a in enumerate_complete(3, 1)}
        assert vecs == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_seventy_unique(self):
        vecs = [tuple(int(v) for v in a.values) for a in enumerate_complete(8, 4)]
        assert len(vecs) == 70
        assert len(set(vecs)) == 70

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(enumerate_complete(40, 20, cap=1_000_000))

    def test_matrix_matches_generator(self):
        mat = enumerate_matrix(6, 2)
        gen = np.stack([a.values for a in enumerate_complete(6, 2)])
        assert np.array_equal(mat, gen)

    @pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (1, 1), (2, 1), (6, 0), (6, 2),
                                      (6, 6), (8, 4), (9, 8), (11, 1), (11, 10),
                                      (12, 5), (15, 7), (20, 1), (20, 19)])
    def test_matrix_matches_loop_reference(self, n, k):
        reference = np.zeros((len(list(itertools.combinations(range(n), k))), n),
                             dtype=np.int8)
        for i, combo in enumerate(itertools.combinations(range(n), k)):
            reference[i, list(combo)] = 1
        mat = enumerate_matrix(n, k)
        assert mat.dtype == np.int8 and np.array_equal(mat, reference)

    @pytest.mark.parametrize("n, k", [(20, 10), (300, 2), (60, 57)])
    def test_matrix_memory_is_the_output(self, n, k):
        # balanced and skewed counts alike: no table beyond the output itself
        tracemalloc.start()
        try:
            mat = enumerate_matrix(n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.sum() == k * len(mat)
        assert peak < mat.nbytes + (1 << 16)

    def test_deterministic_order(self):
        a = [tuple(v.values.tolist()) for v in enumerate_complete(5, 2)]
        b = [tuple(v.values.tolist()) for v in enumerate_complete(5, 2)]
        assert a == b
        first = list(itertools.combinations(range(5), 2))[0]
        expect = np.zeros(5, dtype=int)
        expect[list(first)] = 1
        assert a[0] == tuple(expect.tolist())


def _spec(kind: str, n: int, rng: np.random.Generator) -> MechanismSpec:
    if kind == "complete":
        return MechanismSpec.complete(int(rng.integers(1, n)))
    if kind == "block":
        labels = tuple(f"b{i}" for i in rng.integers(0, 3, n))
        counts = {label: labels.count(label) for label in set(labels)}
        if min(counts.values()) < 2:
            labels = ("solo",) * n
            counts = {"solo": n}
        return MechanismSpec.block(labels, {label: int(rng.integers(1, size))
                                            for label, size in counts.items()})
    return MechanismSpec.bernoulli(rng.uniform(0.02, 0.6, n))


class TestChunkInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["complete", "block", "bernoulli"]),
        n=st.integers(4, 40),
        m=st.integers(1, 120),
        cuts=st.lists(st.integers(0, 120), max_size=6),
    )
    def test_split_batches_equal_one_batch(self, seed, kind, n, m, cuts):
        # draw m is a function of (stream, m) alone: any split of the
        # indices, with or without a prepared sampler, gives the same rows
        rng = np.random.default_rng(seed)
        spec = _spec(kind, n, rng)
        stream = DrawStream(seed=seed, domain=seed % 5)
        indices = rng.permutation(np.arange(m, dtype=np.uint64) + np.uint64(seed))
        whole_tally, split_tally = DrawTally(), DrawTally()
        whole = draw_batch(spec, n, stream, indices, whole_tally)
        sampler = prepare_sampler(spec, n)
        bounds = [0, *sorted(c for c in cuts if c < m), m]
        pieces = np.concatenate([
            draw_batch(spec, n, stream, indices[lo:hi], split_tally, sampler)
            for lo, hi in zip(bounds, bounds[1:])
        ])
        assert np.array_equal(whole, pieces)
        assert whole_tally.redraws == split_tally.redraws


def _block_order(spec: MechanismSpec, n: int) -> list:
    """(units, lo, hi, k) per group: its units, and their slice of the keys."""
    if spec.kind == "complete":
        return [(np.arange(n), 0, n, spec.n_treated)]
    positions: dict = {}
    for i, label in enumerate(spec.block_labels):
        positions.setdefault(label, []).append(i)
    groups, lo = [], 0
    for label in sorted(positions, key=str):
        units = np.array(positions[label], dtype=np.intp)
        groups.append((units, lo, lo + len(units), spec.per_block_treated[label]))
        lo += len(units)
    return groups


def _draw_keys(stream: DrawStream, n: int, indices: np.ndarray) -> np.ndarray:
    return rng_module.word_keys(stream.word_block(indices, (n + 1) // 2))[:, :n]


def _stable_sort_reference(spec: MechanismSpec, n: int, stream: DrawStream,
                           indices: np.ndarray) -> np.ndarray:
    """Complete and block draws by their definition: in each group the k
    units whose (key, position) pairs are smallest, from a stable sort."""
    keys = _draw_keys(stream, n, indices)
    out = np.zeros((len(indices), n), dtype=np.int8)
    for units, lo, hi, k in _block_order(spec, n):
        picked = np.argsort(keys[:, lo:hi], axis=1, kind="stable")[:, :k]
        np.put_along_axis(out, units[picked], np.int8(1), axis=1)
    return out


class _CoarseStream(DrawStream):
    """Keys with 16 possible values, so most rows tie at the k-th key."""

    def word_block_raw(self, starts, width, out=None):
        words = super().word_block_raw(starts, width, out)
        words >>= np.uint64(28)
        words &= np.uint64(0x0000000F0000000F)
        return words


class TestPartitionThreshold:
    @pytest.mark.parametrize("kind", ["complete", "block"])
    @pytest.mark.parametrize("seed", range(4))
    def test_tied_rows_fall_back_to_argpartition(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 40
        spec = _spec(kind, n, rng)
        stream = _CoarseStream(seed=seed)
        indices = np.arange(200, dtype=np.uint64)
        drawn = draw_batch(spec, n, stream, indices)
        assert np.array_equal(drawn, _stable_sort_reference(spec, n, stream, indices))
        # the threshold alone would treat more than k units in most rows
        keys = _draw_keys(stream, n, indices)
        tied = np.zeros(len(indices), dtype=bool)
        for _, lo, hi, k in _block_order(spec, n):
            kth = np.partition(keys[:, lo:hi], k - 1, axis=1)[:, k - 1:k]
            tied |= (keys[:, lo:hi] <= kth).sum(axis=1) != k
        assert tied.mean() > 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["complete", "block"]),
        n=st.integers(2, 300),
        m=st.integers(1, 70),
    )
    def test_matches_stable_sort_reference(self, seed, kind, n, m):
        rng = np.random.default_rng(seed)
        spec = _spec(kind, n, rng)
        stream = DrawStream(seed=seed, domain=seed % 5)
        indices = np.arange(m, dtype=np.uint64) + np.uint64(seed)
        assert np.array_equal(draw_batch(spec, n, stream, indices),
                              _stable_sort_reference(spec, n, stream, indices))


_MASK64 = (1 << 64) - 1


def _splitmix64(key: int, counter: int) -> int:
    """The stream's word at ``counter``, in Python integers mod 2**64."""
    z = (counter * 0x9E3779B97F4A7C15 + key) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class TestDrawStream:
    def test_key_derived_once_per_stream(self, monkeypatch):
        calls = []
        original = rng_module.stream_key

        def counted(seed, domain):
            calls.append((seed, domain))
            return original(seed, domain)

        monkeypatch.setattr(rng_module, "stream_key", counted)
        stream = DrawStream(seed=11, domain=2)
        first = stream.word_block(np.arange(3, dtype=np.uint64), 7)
        second = stream.word_block(np.arange(3, dtype=np.uint64), 7)
        assert calls == [(11, 2)]
        assert np.array_equal(first, second)
        assert stream.key == original(11, 2)

    @pytest.mark.parametrize("seed,domain,starts,width", [
        (0, 0, [0, 1, 2], 5),
        (11, 2, [7, 10**12], 1),
        (2019, 1, [2**64 - 3, 2**64 - 1, 2**63], 6),    # counters wrap mod 2**64
        (5, 16, [3], rng_module.MIX_PIECE_WORDS + 3),   # a row split in pieces
        (6, 3, list(range(0, 9 * 5000, 5000)), 5000),  # pieces of several rows
    ])
    def test_words_match_python_splitmix64(self, seed, domain, starts, width):
        stream = DrawStream(seed=seed, domain=domain)
        words = stream.word_block_raw(np.array(starts, dtype=np.uint64), width)
        assert words.dtype == np.uint64 and words.shape == (len(starts), width)
        key = int(stream.key)
        expected = [[_splitmix64(key, (start + j) & _MASK64) for j in range(width)]
                    for start in starts]
        assert words.tolist() == expected

    def test_word_block_is_rows_of_consecutive_counters(self):
        stream = DrawStream(seed=3, domain=1)
        indices = np.array([0, 4, 9], dtype=np.uint64)
        assert np.array_equal(stream.word_block(indices, 6),
                              stream.word_block_raw(indices * np.uint64(6), 6))

    def test_keys_are_low_then_high_halves(self):
        words = DrawStream(seed=4).word_block(np.arange(3, dtype=np.uint64), 5)
        keys = rng_module.word_keys(words)
        assert keys.shape == (3, 10)
        assert np.array_equal(keys[:, 0::2], words & np.uint64(0xFFFFFFFF))
        assert np.array_equal(keys[:, 1::2], words >> np.uint64(32))


class TestBernoulliThresholds:
    def test_edges_and_midpoint(self):
        t = rng_module.bernoulli_thresholds(np.array([1e-12, 0.5, 1.0 - 1e-12]))
        assert t.dtype == np.uint32
        assert t.tolist() == [1, 2**31, 2**32 - 1]

    def test_quantization_error_at_most_two_to_minus_32(self):
        p = np.random.default_rng(0).uniform(1e-6, 1.0 - 1e-6, 10_000)
        t = rng_module.bernoulli_thresholds(p)
        assert np.all(np.abs(t / 2.0**32 - p) <= 2.0**-32)


class TestPinnedDraws:
    """Digests of fixed draws: a change to the draw definition fails here.

    When one must change, bump ``rng.STREAM_VERSION`` with the digest."""

    N = 37   # odd: the last word's high half goes unused
    INDICES = np.array([0, 1, 7, 1000, 2**40], dtype=np.uint64)

    @classmethod
    def _spec(cls, kind):
        if kind == "complete":
            return MechanismSpec.complete(11)
        if kind == "block":
            labels = tuple("abc"[i % 3] for i in range(cls.N))
            return MechanismSpec.block(labels, {"a": 4, "b": 6, "c": 2})
        return MechanismSpec.bernoulli(np.geomspace(0.005, 0.05, cls.N))

    @pytest.mark.parametrize("kind,redraws,digest", [
        ("complete", 0, "9f7677689285182e407e78e6f423d74a8857ba5aaa3bded9c0568acf5a182b95"),
        ("block", 0, "989464f7fc1ba684303dfba5594a099bcdf17a2038e640b36bb6a1979b24e9b5"),
        ("bernoulli", 7, "f87e4f03b02a4090d4212ed32ea196720f19735414ccbc4ffe6deca7fd7b2b36"),
    ])
    def test_draw_digest(self, kind, redraws, digest):
        tally = DrawTally()
        drawn = draw_batch(self._spec(kind), self.N,
                           DrawStream(seed=1907, domain=rng_module.DOMAIN_TEST_INSTRUMENT),
                           self.INDICES, tally)
        assert tally.redraws == redraws
        assert (rng_module.STREAM_VERSION,
                hashlib.sha256(drawn.tobytes()).hexdigest()) == (2, digest)
