"""Monte Carlo and exact randomization tests of as-if random assignment.

The engine draws M assignments from a posited mechanism, evaluates a
balance or bias statistic on every draw, and locates the observed
statistic in that randomization distribution.  The p-value is the
tie-inclusive two-sided tail count with the +1 correction:

    p = (1 + #{m : |t_m| >= |t_obs|}) / (M + 1)

For nonnegative global statistics (Mahalanobis) the absolute value is a
no-op and this reduces to a right-tail test.  The exact variant
enumerates every assignment with a given treated count instead of
sampling.  At the target's own treated count it drops the +1, because
the observed assignment is itself a member of the enumeration; at any
other count it keeps it.

Statistic evaluation is chunked and vectorized; draw m depends only on
(seed, m), so the assignments are identical under any chunking or thread
count.  A chunk holds as many draws as fit a fixed byte budget
(``CHUNK_WORD_BYTES``), capped at ``CHUNK_MAX_ROWS``.  ``run_sets`` runs
every Monte Carlo draw set of a call in one chunk loop: each chunk's key
rows are made once, and every set samples its own assignments from them
and evaluates them (common random numbers), so a set's draws are those of
its own one-set ``run_many``.  Chunks are spread over
``TestConfig.threads`` pool threads, each drawing and evaluating its
chunks in one workspace reused for the whole call and kept for later
calls, and ``run_sets`` keeps every product on one BLAS thread, so a
draw's statistics do not depend on either thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from ._workspace import borrowed
from .balance import GLOBAL_STATISTICS, _Evaluator, instrument_strength
from .data import Dataset, TestConfig
from .errors import MechanismError, StatisticError
from .mechanisms import (DrawTally, MechanismSpec, draw_batch, draw_keys,
                         enumerate_matrix, prepare_sampler)
from .rng import DOMAIN_KEYS, DrawStream

VECTOR_STATISTICS = ("prevalence_diff", "scmd", "iv_bias")
STATISTICS = VECTOR_STATISTICS + GLOBAL_STATISTICS

# Ties in |t| are counted up to this relative slack, so that values that
# are mathematically equal but rounded differently still tie.  A small mean
# difference carries relative rounding errors of a few 1e-12: at N = 13,011
# draws that tie a binary covariate's observed count exactly sat up to
# 6.2e-12 below it.  Widening ties can only increase the p-value, which
# keeps the test valid.
TIE_RTOL = 1e-9

# Bytes a chunk of draws may take, at 8 per unit and draw.  A thread's
# workspace holds the chunk's words (4 bytes per unit and draw), a copy of
# the widest block's 32-bit keys (4 at most), its int8 draws (1, and 1
# more for block draws) and one float64 panel of the evaluator's product
# (8 * min(N, PANEL_UNITS) per draw): about one budget, kept for the
# call; no chunk makes a float64 copy of itself.  Above N = 32,768 the
# 32-row floor makes a chunk larger than this, 256 * N bytes, still
# independent of CHUNK_MAX_ROWS.  Chunk rows are a multiple of
# CHUNK_ROW_MULTIPLE.  The multiple was chosen when OpenBLAS split each
# product over its own threads and rounded the rows after the last full
# 32-row panel differently.  On one BLAS thread (OpenBLAS 0.3.31) a
# one-row chunk (M = 1 mod 32) still rounds differently from the same row
# in a larger chunk, and so do small products: at N = 60, K = 5, chunks of
# up to 96 rows and of 128 or more differ.  Chunk rows depend on N only,
# never on threads, so at small N the cap CHUNK_MAX_ROWS sets the
# products' rounding.  Changing the multiple or the cap changes chunk
# sizes, so either is left for a change measured on its own.
CHUNK_WORD_BYTES = 8 << 20
CHUNK_ROW_MULTIPLE = 32
CHUNK_MAX_ROWS = 1024


def _tie_threshold(abs_obs):
    return abs_obs * (1.0 - TIE_RTOL)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one randomization test.

    For covariate-specific statistics the observed value, p-value,
    quantiles, undefined-draw counts, and rejection flags are arrays
    with one entry per covariate; for global statistics they are
    scalars.  ``draws`` holds the statistic evaluated on every draw
    ((M,) or (M, K)), drawn at the target's own treated count (or
    per-block counts, or propensities).  (M, K) draws are stored
    covariate-major (Fortran order), so ``draws[:, j]`` is contiguous.
    """

    target: str
    statistic: str
    covariate_names: tuple[str, ...] | None
    observed: np.ndarray | float
    draws: np.ndarray
    p_value: np.ndarray | float
    q025: np.ndarray | float
    q975: np.ndarray | float
    draw_mean: np.ndarray | float
    n_draws: int
    n_undefined: np.ndarray | int
    alpha: float
    seed: int
    mechanism: dict
    reject_at_alpha: np.ndarray | bool
    exact: bool = False
    n_redraws: int = 0

    __test__ = False   # keep pytest from collecting this as a test class

    def histogram(self, bins="fd") -> dict:
        """Histogram(s) of the draw distribution, NaN draws excluded."""
        if self.draws.ndim == 1:
            return _histogram_dict(self.draws, bins)
        return {
            name: _histogram_dict(self.draws[:, j], bins)
            for j, name in enumerate(self.covariate_names)
        }


def bin_counts(values: np.ndarray, bins, groups) -> tuple[np.ndarray, list]:
    """Edges of ``bins`` (a count or a numpy rule name) over ``values``, and
    the counts of each of ``groups``, subsets of ``values``, on them.

    Every report histogram is binned here.  A rule gives at most
    ceil(2 sqrt(n)) bins for n values: "fd" gives thousands, mostly empty,
    to few distinct or very concentrated values.
    """
    edges = np.histogram_bin_edges(values, bins=bins)
    cap = math.ceil(2 * math.sqrt(values.size))
    if isinstance(bins, str) and edges.size - 1 > cap:
        edges = np.histogram_bin_edges(values, bins=cap)
    # evenly spaced edges: numpy counts by arithmetic, not by sorting, and
    # checks each index against these same edges
    return edges, [np.histogram(group, bins=edges.size - 1, range=(edges[0], edges[-1]))[0]
                   for group in groups]


def _histogram_dict(values: np.ndarray, bins) -> dict:
    """Histogram of the finite values."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"bin_edges": [], "counts": []}
    edges, (counts,) = bin_counts(finite, bins, (finite,))
    return {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _tail_pvalue(observed, draws: np.ndarray, undefined, offset: int = 1):
    """(offset + #{m : |t_m| >= |t_obs|}) / (offset + #defined draws), per column.

    ``undefined`` is the count of NaN draws per column.  NaN draws count in
    neither term (a NaN never compares true), +-inf draws in both; a
    non-finite observed value gives NaN.  The count runs over the (K, M)
    view, which is contiguous for covariate-major draws.  |t| >= c is
    counted as t >= c or t <= -c: negation is exact, and one bool buffer
    takes the place of a float64 copy of |draws|.
    """
    with np.errstate(invalid="ignore"):
        threshold = _tie_threshold(np.abs(observed))[..., None]
        tail = draws.T >= threshold
        tail |= draws.T <= -threshold
        tail = np.count_nonzero(tail, axis=-1)
    p = (offset + tail) / (draws.shape[0] - undefined + offset)
    return np.where(np.isfinite(observed), p, np.nan)


def pvalue(t_obs: float, draws) -> float:
    """Tie-inclusive Monte Carlo p-value with the +1 correction.

    NaN draws (undefined statistic values) are excluded; the effective
    number of draws shrinks accordingly.  A +-inf draw is defined and lies
    in the tail of every finite observed value.
    """
    d = np.asarray(draws, dtype=np.float64).ravel()
    if d.size == 0:
        raise StatisticError("empty draw sequence")
    if not np.isfinite(t_obs):
        raise StatisticError("observed statistic is not finite")
    undefined = np.count_nonzero(np.isnan(d))
    if undefined == d.size:
        raise StatisticError("all draws are undefined")
    return float(_tail_pvalue(t_obs, d, undefined))


def resolve_mechanism(mechanism, dataset: Dataset, target: str) -> MechanismSpec:
    """The resolved, validated spec of ``target``'s draw set (None: complete)."""
    if mechanism is None or mechanism == "complete":
        mechanism = MechanismSpec(kind="complete")
    elif isinstance(mechanism, str):
        raise MechanismError(f"mechanism {mechanism!r} needs a full MechanismSpec")
    spec = mechanism.resolved(dataset.target_vector(target))
    spec.validate(dataset.n_units)
    return spec


def _evaluate_rows(draw, evaluators, m: int, config: TestConfig) -> list[tuple[dict, int]]:
    """Evaluate every draw set's statistics over rows [0, m) in one chunk loop.

    ``draw(lo, hi, tallies, workspace)`` yields the (hi - lo, N) assignments
    of one chunk for each draw set in turn, the set of ``evaluators[j]``
    j-th, and adds set j's rejected draws to ``tallies[j]``; each is
    evaluated before the next is drawn, so they may share the workspace's
    buffers.  Each worker thread takes chunks in order from one shared
    iterator and keeps one ``Workspace`` for all of them and all sets,
    borrowed from the idle ones of earlier calls and left idle for later
    ones.  Returns each set's statistics and redraw count.
    """
    # covariate-major: each covariate's M draws are contiguous for _summarize
    outs = [{name: np.empty((m,) if name in GLOBAL_STATISTICS else (m, evaluator.k),
                            order="F")
             for name in evaluator.statistics} for evaluator in evaluators]
    budget_rows = CHUNK_WORD_BYTES // (8 * evaluators[0].n)
    rows_per_chunk = min(CHUNK_MAX_ROWS, max(
        CHUNK_ROW_MULTIPLE, budget_rows // CHUNK_ROW_MULTIPLE * CHUNK_ROW_MULTIPLE))
    bounds = list(range(0, m, rows_per_chunk)) + [m]
    chunks = iter([(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo])
    lock = threading.Lock()

    def worker():
        tallies = [DrawTally() for _ in evaluators]
        with borrowed() as workspace:
            while True:
                with lock:
                    lo, hi = next(chunks, (None, None))
                if lo is None:
                    return [tally.redraws for tally in tallies]
                for evaluator, out, z in zip(evaluators, outs,
                                             draw(lo, hi, tallies, workspace)):
                    for name, values in evaluator(z, workspace=workspace).items():
                        out[name][lo:hi] = values

    workers = min(config.threads, len(bounds) - 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = [f.result() for f in [pool.submit(worker) for _ in range(workers)]]
        redraws = [sum(c) for c in zip(*counts)]
    else:
        redraws = worker()
    return list(zip(outs, redraws))


def _evaluate_mechanism_draws(specs, evaluators, config: TestConfig
                              ) -> list[tuple[dict, int]]:
    """Evaluate each (spec, evaluator) draw set over config.n_draws draws.

    Draw m of every set is sampled from key row m of the seed's key stream
    (``rng.DOMAIN_KEYS``), made once per chunk for all sets.
    """
    n = evaluators[0].n
    stream = DrawStream(seed=config.seed, domain=DOMAIN_KEYS)
    samplers = [prepare_sampler(spec, n) for spec in specs]

    def draw(lo, hi, tallies, workspace):
        indices = np.arange(lo, hi, dtype=np.uint64)
        keys = draw_keys(stream, indices, n, workspace)
        for spec, sampler, tally in zip(specs, samplers, tallies):
            yield draw_batch(spec, n, stream, indices, tally, sampler, workspace, keys)

    return _evaluate_rows(draw, evaluators, config.n_draws, config)


def _evaluate_enumeration(n_treated: int, evaluator: _Evaluator, config: TestConfig
                          ) -> tuple[dict, int]:
    """Evaluate every assignment of ``n_treated`` units, in combination order."""
    matrix = enumerate_matrix(evaluator.n, n_treated, cap=config.enumeration_cap)
    return _evaluate_rows(lambda lo, hi, tallies, workspace: [matrix[lo:hi]], [evaluator],
                          len(matrix), config)[0]


def _combination_rank(vec) -> int:
    """Row of the 0/1 vector ``vec`` in ``enumerate_matrix(len(vec), sum(vec))``.

    With ``left`` units still to treat, the C(n - i - 1, left - 1) rows
    that treat unit i come before those that skip it."""
    rank, left, n = 0, int(vec.sum()), len(vec)
    for i, treated in enumerate(vec.tolist()):
        if not left:
            break
        if treated:
            left -= 1
        else:
            rank += math.comb(n - i - 1, left - 1)
    return rank


def _summarize(
    target: str,
    statistic: str,
    dataset: Dataset,
    observed,
    draws: np.ndarray,
    config: TestConfig,
    mechanism: MechanismSpec,
    exact: bool = False,
    n_redraws: int = 0,
    offset: int = 1,
) -> TestResult:
    """One pass of summaries over each covariate's draws; ``offset`` is the
    p-value's +1 (0 when the observed assignment is among the draws)."""
    vector = draws.ndim == 2
    names = dataset.covariate_names if vector else None
    observed = np.asarray(observed, dtype=np.float64)
    undefined = np.count_nonzero(np.isnan(draws), axis=0)
    for bad, message in ((~np.isfinite(observed),
                          f"observed {statistic} is undefined for the {target}"),
                         (undefined == draws.shape[0], "all draws are undefined")):
        if bad.any():
            if vector:
                message += " for covariate(s): " + ", ".join(
                    names[j] for j in np.flatnonzero(bad))
            raise StatisticError(message)

    with np.errstate(all="ignore"):
        q025, q975 = np.nanquantile(draws, (0.025, 0.975), axis=0)
        summary = {
            "observed": observed,
            "p_value": _tail_pvalue(observed, draws, undefined, offset),
            "q025": q025,
            "q975": q975,
            "draw_mean": np.nanmean(draws, axis=0),
            "n_undefined": undefined,
        }
    if not vector:
        summary = {key: value.item() for key, value in summary.items()}
    return TestResult(
        target=target,
        statistic=statistic,
        covariate_names=names,
        draws=draws,
        n_draws=draws.shape[0],
        alpha=config.alpha,
        seed=config.seed,
        mechanism=mechanism.describe(),
        reject_at_alpha=summary["p_value"] <= config.alpha,
        exact=exact,
        n_redraws=n_redraws,
        **summary,
    )


@one_blas_thread()
def run_sets(dataset: Dataset, sets, config: TestConfig, exact: bool = False
             ) -> list[dict[str, TestResult]]:
    """Run each draw set ``(target, statistics, mechanism)`` of ``sets``.

    Returns one ``{statistic: TestResult}`` per set, in order.  Each set is
    ``run_many``'s draw set of the same arguments, and its results are
    that call's.  The Monte Carlo sets run in one chunk loop: draw m of
    every set reads the same key row, made once (``rng.DOMAIN_KEYS``), and
    only a degenerate Bernoulli draw's later attempts read further words.
    Every set reads one product operand, the wide layout when any set needs
    it.  With ``exact`` each set enumerates its own complete mechanism in
    its own loop.
    """
    prepared = []
    for target, statistics, mechanism in sets:
        statistics = tuple(statistics)
        for s in statistics:
            if s not in STATISTICS:
                raise ValueError(f"unknown statistic {s!r}; choose from {STATISTICS}")
        spec = resolve_mechanism(mechanism, dataset, target)
        if exact and spec.kind != "complete":
            raise MechanismError("exact tests enumerate complete randomization only")
        vec = dataset.target_vector(target)
        fixed_strength = None
        if "iv_bias" in statistics and config.bias_denominator == "fixed_observed":
            fixed_strength = instrument_strength(vec, dataset.exposure)
            if fixed_strength == 0.0:
                raise StatisticError(
                    "observed exposure prevalence difference across the target is zero")
        prepared.append((target, statistics, spec, vec, fixed_strength))
    every = dict.fromkeys(s for _, statistics, *_ in prepared for s in statistics)
    operand = _Evaluator(dataset.covariates, dataset.exposure, every, None)
    evaluators = [operand.sharing(statistics, fixed_strength)
                  for _, statistics, _, _, fixed_strength in prepared]
    if exact:
        drawn = [_evaluate_enumeration(spec.n_treated, evaluator, config)
                 for (_, _, spec, _, _), evaluator in zip(prepared, evaluators)]
    else:
        drawn = _evaluate_mechanism_draws([spec for _, _, spec, _, _ in prepared],
                                          evaluators, config)
    results = []
    for (target, statistics, spec, vec, _), evaluator, (draws, redraws) in zip(
            prepared, evaluators, drawn):
        enumerated = exact and vec.sum() == spec.n_treated
        if enumerated:
            # the observed assignment's own enumerated row, evaluated exactly
            # as every draw is, so it always counts itself in the tail
            row = _combination_rank(vec)
            observed = {name: values[row] for name, values in draws.items()}
        else:
            # Monte Carlo, or an exact n_treated that differs from the
            # observed count: the observed assignment is not a draw, so p
            # keeps its +1
            stats = evaluator(vec.astype(np.float64)[None, :])
            observed = {name: values[0] for name, values in stats.items()}
        results.append({
            name: _summarize(target, name, dataset, observed[name], draws[name],
                             config, spec, exact=exact, n_redraws=redraws,
                             offset=0 if enumerated else 1)
            for name in statistics
        })
    return results


def run_many(
    dataset: Dataset,
    target: str,
    statistics,
    config: TestConfig,
    mechanism: MechanismSpec | str | None = None,
    exact: bool = False,
) -> dict[str, TestResult]:
    """Run several statistics against one shared draw set.

    All statistics see exactly the same assignments, so per-covariate
    bands, bias bands, and the global test of one target are mutually
    consistent.  With ``exact`` the draw set is every assignment of a
    complete ``mechanism`` (C(N, N_T) rows, at most
    ``config.enumeration_cap``) instead of ``config.n_draws`` samples.
    ``mechanism=None`` means complete randomization.  Every randomization
    distribution goes through here or through ``run_sets``, of which this
    is the one-set case.  Draw m reads key row m of the seed's key stream,
    whatever the target, and the fixed bias denominator is the target's own
    instrument strength.
    """
    return run_sets(dataset, [(target, statistics, mechanism)], config, exact)[0]


def run_test(
    dataset: Dataset,
    target: str,
    config: TestConfig | None = None,
    mechanism: MechanismSpec | str | None = None,
    statistic: str = "scmd",
) -> TestResult:
    """Monte Carlo randomization test of one statistic for one target."""
    config = config or TestConfig()
    return run_many(dataset, target, (statistic,), config, mechanism)[statistic]


def exact_test(
    dataset: Dataset,
    target: str,
    n_treated: int | None = None,
    statistic: str = "scmd",
    config: TestConfig | None = None,
) -> TestResult:
    """Exact randomization test over the full complete-randomization set.

    ``n_treated`` defaults to the target's observed treated count.  Then
    the p-value is the fraction of all C(N, N_T) assignments whose
    |statistic| is at least the observed one; the observed assignment is
    itself one of the enumerated assignments, so p >= 1 / C(N, N_T).  At
    any other ``n_treated`` the observed assignment is not enumerated and
    p = (1 + #tail) / (1 + C(N, N_T)) >= 1 / (1 + C(N, N_T)).
    """
    config = config or TestConfig()
    spec = MechanismSpec(kind="complete") if n_treated is None else (
        MechanismSpec.complete(n_treated))
    return run_many(dataset, target, (statistic,), config, spec, exact=True)[statistic]


def per_covariate_quantiles(result: TestResult) -> list[dict]:
    """One row per covariate of a covariate-specific result.

    Each row holds the target's observed value, the 2.5%/97.5% band of
    its own draw set, its p-value and the count of undefined draws:
    ``{covariate, target, observed, q025, q975, p_value, n_undefined}``.
    """
    if result.statistic not in VECTOR_STATISTICS:
        raise ValueError("per-covariate bands need a covariate-specific statistic")
    return [
        {
            "covariate": name,
            "target": result.target,
            "observed": float(result.observed[j]),
            "q025": float(result.q025[j]),
            "q975": float(result.q975[j]),
            "p_value": float(result.p_value[j]),
            "n_undefined": int(result.n_undefined[j]),
        }
        for j, name in enumerate(result.covariate_names)
    ]
