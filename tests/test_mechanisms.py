"""Sampler distribution checks against enumeration oracles."""

import itertools

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
from ivrand.mechanisms import DrawTally, draw_batch, enumerate_matrix, prepare_sampler


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

    def test_extreme_propensities_exhaust_redraws(self):
        stream = DrawStream(seed=14)
        spec = MechanismSpec.bernoulli([1e-9] * 4, max_redraws=5)
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

    # (15, 7) has 6,435 rows, more than one fill block
    @pytest.mark.parametrize("n, k", [(1, 1), (6, 2), (8, 4), (11, 1), (11, 10), (12, 5),
                                      (15, 7)])
    def test_matrix_matches_loop_reference(self, n, k):
        reference = np.zeros((len(list(itertools.combinations(range(n), k))), n),
                             dtype=np.int8)
        for i, combo in enumerate(itertools.combinations(range(n), k)):
            reference[i, list(combo)] = 1
        mat = enumerate_matrix(n, k)
        assert mat.dtype == np.int8 and np.array_equal(mat, reference)

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
    return MechanismSpec.bernoulli(rng.uniform(0.02, 0.6, n), max_redraws=200)


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


def _argpartition_reference(spec: MechanismSpec, n: int, stream: DrawStream,
                            indices: np.ndarray) -> np.ndarray:
    """The argpartition sampler that defined complete and block draws before
    the partition threshold: kept here as the reference draw m must equal."""
    words = stream.word_block(indices, n)
    out = np.zeros((len(indices), n), dtype=np.int8)
    if spec.kind == "complete":
        picked = np.argpartition(words, spec.n_treated - 1, axis=1)[:, : spec.n_treated]
        np.put_along_axis(out, picked, np.int8(1), axis=1)
        return out
    positions: dict = {}
    for i, label in enumerate(spec.block_labels):
        positions.setdefault(label, []).append(i)
    for label in sorted(positions, key=str):
        cols = np.array(positions[label], dtype=np.intp)
        k = spec.per_block_treated[label]
        picked = np.argpartition(words[:, cols], k - 1, axis=1)[:, :k]
        np.put_along_axis(out, cols[picked], np.int8(1), axis=1)
    return out


class _CoarseStream(DrawStream):
    """Words with 16 possible values, so most rows tie at the k-th word."""

    def word_block_raw(self, counters, reuse=False):
        return super().word_block_raw(counters, reuse) >> np.uint64(60)


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
        assert np.array_equal(drawn, _argpartition_reference(spec, n, stream, indices))
        # the threshold alone would treat more than k units in most rows
        words = stream.word_block(indices, n)
        if kind == "complete":
            groups = [(np.arange(n), spec.n_treated)]
        else:
            labels = np.array(spec.block_labels)
            groups = [(np.flatnonzero(labels == label), k)
                      for label, k in spec.per_block_treated.items()]
        tied = np.zeros(len(indices), dtype=bool)
        for cols, k in groups:
            kth = np.partition(words[:, cols], k - 1, axis=1)[:, k - 1:k]
            tied |= (words[:, cols] <= kth).sum(axis=1) != k
        assert tied.mean() > 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["complete", "block"]),
        n=st.integers(2, 300),
        m=st.integers(1, 70),
    )
    def test_matches_argpartition_reference(self, seed, kind, n, m):
        rng = np.random.default_rng(seed)
        spec = _spec(kind, n, rng)
        stream = DrawStream(seed=seed, domain=seed % 5)
        indices = np.arange(m, dtype=np.uint64) + np.uint64(seed)
        assert np.array_equal(draw_batch(spec, n, stream, indices),
                              _argpartition_reference(spec, n, stream, indices))


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

    def test_column_order_permutes_each_row(self):
        stream = DrawStream(seed=12, domain=1)
        indices = np.array([0, 5, 9], dtype=np.uint64)
        columns = np.random.default_rng(0).permutation(8)
        whole = stream.word_block(indices, 8)
        assert np.array_equal(stream.word_block(indices, 8, columns), whole[:, columns])
