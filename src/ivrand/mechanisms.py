"""Assignment mechanisms: complete, block, and Bernoulli randomization.

All samplers are stateless functions of (spec, stream, draw index).  The
batch entry point ``draw_batch`` is the canonical definition of draw m;
the single-draw functions are thin wrappers over it, so a draw obtained
one at a time is identical to the same index inside a batch.

Draw m reads the ceil(N / 2) random words from counter m * ceil(N / 2)
on as 32-bit keys (``draw_keys``), one key per unit.  The keys depend on
(seed, m) alone, so draw sets that sample the same index from one stream
read the same keys: common random numbers.  A complete draw treats the k
units with the smallest keys, a tie at the k-th key going to the lowest
positions: the draw is the first k units of a stable sort of its keys.
The k smallest are found by a partition threshold: the k-th smallest key
of each row, from a copy of the keys partitioned in place, and
``keys <= kth``.  A row where that marks more than k units, because a
key outside the k smallest equals the k-th (chance below N/2**32 per
row), falls back to an ``argpartition`` of its (key, position) pairs.
A block draw gives key p to the unit at position p of the block order
(blocks sorted by label, each block's units in unit order), so that each
block is a contiguous slice of the chunk, draws each block like a
complete draw, and puts the chunk back in unit order once.  A Bernoulli
unit is treated when its key is below its threshold ``floor(p * 2**32)``.
A degenerate draw (no unit or every unit treated) is redrawn: attempt
a >= 1 of draw m reads the words from ``(m * R + a - 1) * ceil(N / 2)``
on in the seed's ``DOMAIN_REDRAWS`` stream, R the redraw limit
``MAX_REDRAWS``, never the shared keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._workspace import Workspace
from .data import AssignmentVector, TestConfig
from .errors import CapExceededError, MechanismError, RedrawLimitError
from .rng import DOMAIN_REDRAWS, DrawStream, bernoulli_thresholds, word_keys

MAX_REDRAWS = 1_000   # redraws of a degenerate Bernoulli draw, at most


@dataclass(frozen=True)
class MechanismSpec:
    """Specification of an assignment distribution over binary N-vectors."""

    kind: str
    n_treated: int | None = None
    block_labels: tuple | None = None
    per_block_treated: dict | None = None
    propensities: np.ndarray | None = None

    @staticmethod
    def complete(n_treated: int) -> "MechanismSpec":
        return MechanismSpec(kind="complete", n_treated=int(n_treated))

    @staticmethod
    def block(block_labels, per_block_treated: dict | None = None) -> "MechanismSpec":
        return MechanismSpec(
            kind="block",
            block_labels=tuple(block_labels),
            per_block_treated=dict(per_block_treated) if per_block_treated else None,
        )

    @staticmethod
    def bernoulli(propensities) -> "MechanismSpec":
        p = np.asarray(propensities, dtype=np.float64)
        return MechanismSpec(kind="bernoulli", propensities=p)

    def resolved(self, target_vector: np.ndarray) -> "MechanismSpec":
        """Fill unspecified counts from the observed target vector.

        Complete randomization conditions on the observed number
        treated; block randomization conditions on the observed
        per-block treated counts.
        """
        z = np.asarray(target_vector)
        if self.kind == "complete" and self.n_treated is None:
            return MechanismSpec(kind="complete", n_treated=int(z.sum()))
        if self.kind == "block" and self.per_block_treated is None:
            if self.block_labels is None or len(self.block_labels) != len(z):
                raise MechanismError("block mechanism needs one label per unit")
            labels, codes = self.block_codes
            treated = np.bincount(codes, weights=z, minlength=len(labels))
            spec = MechanismSpec(
                kind="block",
                block_labels=self.block_labels,
                per_block_treated=dict(zip(labels, map(int, treated))),
            )
            # same labels, so the same codes: cached_property reads __dict__
            spec.__dict__["block_codes"] = self.block_codes
            return spec
        return self

    @cached_property
    def block_codes(self) -> tuple[tuple, np.ndarray]:
        """Block mechanism: ``(labels, codes)``, the distinct labels in order
        of first appearance and each unit's index into them."""
        labels = tuple(dict.fromkeys(self.block_labels))
        index = {label: i for i, label in enumerate(labels)}
        codes = np.fromiter(map(index.__getitem__, self.block_labels), np.intp,
                            len(self.block_labels))
        return labels, codes

    def validate(self, n: int) -> None:
        if self.kind == "complete":
            if self.n_treated is None or not 0 < self.n_treated < n:
                raise MechanismError(
                    f"complete randomization needs 0 < n_treated < {n}, "
                    f"got {self.n_treated}"
                )
        elif self.kind == "block":
            if self.block_labels is None or len(self.block_labels) != n:
                raise MechanismError("block mechanism needs one label per unit")
            if self.per_block_treated is None:
                raise MechanismError("block mechanism has unresolved treated counts")
            labels, codes = self.block_codes
            if set(self.per_block_treated) != set(labels):
                raise MechanismError("per-block treated counts do not match block labels")
            for label, size in zip(labels, np.bincount(codes).tolist()):
                k = self.per_block_treated[label]
                if not 0 < k < size:
                    raise MechanismError(
                        f"block {label!r}: treated count {k} must be strictly "
                        f"inside (0, {size})"
                    )
        elif self.kind == "bernoulli":
            p = self.propensities
            if p is None or len(p) != n:
                raise MechanismError("bernoulli mechanism needs one propensity per unit")
            if not np.all((p > 0.0) & (p < 1.0)):
                raise MechanismError("propensities must lie strictly inside (0, 1)")
        else:
            raise MechanismError(f"unknown mechanism kind {self.kind!r}")

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "complete":
            if self.n_treated is not None:
                out["n_treated"] = self.n_treated
        elif self.kind == "block":
            if self.per_block_treated is None:
                out["per_block_treated"] = "observed per-block counts"
            else:
                out["per_block_treated"] = {str(k): v for k, v in sorted(
                    self.per_block_treated.items(), key=lambda kv: str(kv[0])
                )}
        elif self.kind == "bernoulli":
            p = self.propensities
            out["propensity_range"] = [float(p.min()), float(p.max())]
        return out


@dataclass
class DrawTally:
    """Bookkeeping for rejected degenerate Bernoulli draws."""

    redraws: int = 0


@dataclass(frozen=True)
class PreparedSampler:
    """The state every chunk of one draw set shares, for one spec and N.

    Built once per draw set by ``prepare_sampler``.  Complete and block
    mechanisms: ``blocks`` holds each block's ``(lo, hi, treated)`` slice
    of the block order (block by block, blocks sorted by label, each
    block's units in unit order), and ``inverse`` gives the block-order
    position of each unit; complete randomization is the one block
    ``(0, N, n_treated)`` already in unit order, with no ``inverse``.
    Bernoulli: ``thresholds`` holds the per-unit acceptance thresholds.
    """

    blocks: tuple = ()
    inverse: np.ndarray | None = None
    thresholds: np.ndarray | None = None


def prepare_sampler(spec: MechanismSpec, n: int) -> PreparedSampler:
    """Validate ``spec`` for N = ``n`` and precompute its per-draw-set state."""
    spec.validate(n)
    if spec.kind == "block":
        labels, codes = spec.block_codes
        by_str = sorted(range(len(labels)), key=lambda c: str(labels[c]))   # stable
        rank = np.empty(len(labels), dtype=np.intp)
        rank[by_str] = np.arange(len(labels))
        order = np.argsort(rank[codes], kind="stable")
        bounds = np.cumsum([0, *np.bincount(codes)[by_str].tolist()])
        blocks = tuple((int(lo), int(hi), spec.per_block_treated[labels[c]])
                       for c, lo, hi in zip(by_str, bounds, bounds[1:]))
        return PreparedSampler(blocks=blocks, inverse=np.argsort(order))
    if spec.kind == "bernoulli":
        return PreparedSampler(thresholds=bernoulli_thresholds(spec.propensities))
    return PreparedSampler(blocks=((0, n, spec.n_treated),))


def _mark_smallest(keys: np.ndarray, k: int, out: np.ndarray, part: np.ndarray) -> None:
    """Set ``out`` to 1 at the k smallest keys of each row, 0 elsewhere.

    ``out`` is an int8 array (or view) of the shape of ``keys``, and
    ``part`` a uint32 array of that shape that the keys are copied into
    and partitioned in place.  Keys equal to the k-th smallest are taken
    lowest position first.
    """
    np.copyto(part, keys)
    part.partition(k - 1, axis=1)
    kth = part[:, k - 1]
    np.less_equal(keys, kth[:, None], out=out.view(np.bool_))   # no casting loop
    # the threshold marks exactly k units unless a key after the k-th in
    # the partition equals it; such rows fall back to an argpartition of
    # (key, position) pairs, which are distinct, so its pick is the rule's
    tied = np.flatnonzero(part[:, k:].min(axis=1) == kth)
    if len(tied):
        pairs = keys[tied].astype(np.uint64) << np.uint64(32)
        pairs |= np.arange(keys.shape[1], dtype=np.uint64)
        picked = np.argpartition(pairs, k - 1, axis=1)[:, :k]
        marked = np.zeros(pairs.shape, dtype=np.int8)
        np.put_along_axis(marked, picked, np.int8(1), axis=1)
        out[tied] = marked


def draw_keys(stream: DrawStream, indices: np.ndarray, n: int,
              workspace: Workspace) -> np.ndarray:
    """The (len(indices), n) uint32 keys of the given draws, unit i's key in
    column i, a view of the ``workspace``'s ``"words"`` buffer."""
    width = (n + 1) // 2
    words = workspace.get("words", (len(indices), width), np.uint64)
    return word_keys(stream.word_block(indices, width, out=words))[:, :n]


def draw_batch(
    spec: MechanismSpec,
    n: int,
    stream: DrawStream,
    indices: np.ndarray,
    tally: DrawTally | None = None,
    sampler: PreparedSampler | None = None,
    workspace: Workspace | None = None,
    keys: np.ndarray | None = None,
) -> np.ndarray:
    """Generate the assignments for the given draw indices.

    Returns a (len(indices), n) 0/1 int8 matrix.  Row contents depend
    only on (stream, index), so any chunking or ordering of indices
    yields the same draws.  ``sampler`` is ``prepare_sampler(spec, n)``,
    passed in by callers that draw many chunks of one draw set and built
    here when omitted.  ``keys`` is ``draw_keys(stream, indices, n, ...)``,
    passed in by callers that sample several draw sets from one chunk of
    keys; it is read, never written.  With a ``workspace`` the words, keys
    and draws live in its buffers, and the matrix returned is one of them,
    valid until the workspace's next use; without one every array is new.
    """
    if sampler is None:
        sampler = prepare_sampler(spec, n)
    if workspace is None:
        workspace = Workspace()
    indices = np.asarray(indices, dtype=np.uint64)
    if keys is None:
        keys = draw_keys(stream, indices, n, workspace)
    rows = len(indices)
    if spec.kind != "bernoulli":
        grouped = workspace.get("grouped", (rows, n), np.int8)
        # one block at a time is partitioned, so the copy is the widest block's
        widest = max(hi - lo for lo, hi, _ in sampler.blocks)
        part = workspace.get("partition", (rows * widest,), np.uint32)
        for lo, hi, k in sampler.blocks:
            _mark_smallest(keys[:, lo:hi], k, grouped[:, lo:hi],
                           part[:rows * (hi - lo)].reshape(rows, hi - lo))
        if sampler.inverse is None:
            return grouped
        # back to unit order; mode="clip" writes straight into out, where
        # the default mode would buffer it
        draws = workspace.get("draws", (rows, n), np.int8)
        return np.take(grouped, sampler.inverse, axis=1, out=draws, mode="clip")
    # bernoulli with rejection of degenerate (all-0 / all-1) draws
    out = workspace.get("draws", (rows, n), np.int8)
    pending = np.arange(rows)
    width = (n + 1) // 2
    redraws = DrawStream(stream.seed, DOMAIN_REDRAWS)
    for attempt in range(MAX_REDRAWS + 1):
        if attempt == 0:
            # every row is pending: accept straight into out, and leave the
            # rejected rows there until a later attempt overwrites them
            treated = out.view(np.bool_)
            np.less(keys, sampler.thresholds, out=treated)
        else:
            # attempt a of draw m reads the counters from (m R + a - 1) W on
            starts = (indices[pending] * np.uint64(MAX_REDRAWS) + np.uint64(attempt - 1)
                      ) * np.uint64(width)
            block = workspace.get("redraw_words", (len(pending), width), np.uint64)
            redrawn = word_keys(redraws.word_block_raw(starts, width, out=block))[:, :n]
            treated = redrawn < sampler.thresholds
        # a draw is degenerate when it treats no unit or every unit; any/all
        # stop at a row's first deciding unit, where a sum reads the whole row
        good = treated.any(axis=1) & ~treated.all(axis=1)
        if attempt > 0:
            out[pending[good]] = treated[good]
        if tally is not None:
            tally.redraws += int((~good).sum())
        pending = pending[~good]
        if len(pending) == 0:
            return out
    raise RedrawLimitError(
        f"exceeded MAX_REDRAWS={MAX_REDRAWS} rejecting degenerate "
        "Bernoulli draws; propensities are too extreme"
    )


def draw_complete(n: int, n_treated: int, stream: DrawStream, index: int = 0) -> AssignmentVector:
    """One uniform draw over all assignments with exactly n_treated ones."""
    row = draw_batch(MechanismSpec.complete(n_treated), n, stream, np.array([index]))
    return AssignmentVector(values=row[0])


def draw_block(
    block_labels,
    per_block_treated: dict,
    stream: DrawStream,
    index: int = 0,
) -> AssignmentVector:
    """Independent complete randomization within each block."""
    spec = MechanismSpec.block(block_labels, per_block_treated)
    row = draw_batch(spec, len(spec.block_labels), stream, np.array([index]))
    return AssignmentVector(values=row[0])


def draw_bernoulli(
    propensities,
    stream: DrawStream,
    index: int = 0,
    tally: DrawTally | None = None,
) -> AssignmentVector:
    """Independent biased coin flips, redrawn while degenerate.

    Accepted draws always contain at least one unit in each group; the
    number of rejected attempts is added to ``tally``.
    """
    spec = MechanismSpec.bernoulli(propensities)
    row = draw_batch(spec, len(spec.propensities), stream, np.array([index]), tally=tally)
    return AssignmentVector(values=row[0])


def enumerate_complete(n: int, n_treated: int, cap: int = TestConfig.enumeration_cap):
    """All assignments with exactly n_treated ones, in combination order."""
    for values in enumerate_matrix(n, n_treated, cap=cap):
        yield AssignmentVector(values=values.copy(), n_treated=n_treated)


def enumerate_matrix(n: int, n_treated: int, cap: int = TestConfig.enumeration_cap) -> np.ndarray:
    """Dense 0/1 matrix of the full enumeration (rows in combination order).

    The rows of m units with t treated start with those treating unit 0,
    rows(m - 1, t - 1) in the other units; the rows whose first treated
    unit is u > 0 repeat the last C(m - u - 1, t - 1) of those from unit
    u + 1 on, copied within the output, so no other table is built.
    """
    total = math.comb(n, n_treated)
    if total > cap:
        raise CapExceededError(
            f"C({n}, {n_treated}) = {total} exceeds the enumeration cap {cap}"
        )
    out = np.zeros((total, n), dtype=np.int8)
    nested = []                 # (rows(m, t) view, t), outermost first
    view, t = out, n_treated
    while t:
        nested.append((view, t))
        view, t = view[:math.comb(view.shape[1] - 1, t - 1), 1:], t - 1
    for view, t in reversed(nested):    # rows(m - 1, t - 1) is filled first
        m = view.shape[1]
        first = math.comb(m - 1, t - 1)
        view[:first, 0] = 1
        lo = first
        for u in range(1, m - t + 1):
            rows = math.comb(m - u - 1, t - 1)
            view[lo:lo + rows, u] = 1
            view[lo:lo + rows, u + 1:] = view[first - rows:first, u + 1:]
            lo += rows
    return out
