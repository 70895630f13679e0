"""Monte Carlo and exact randomization tests of as-if random assignment.

The engine draws M assignments from a posited mechanism, evaluates a
balance or bias statistic on every draw, and locates the observed
statistic in that randomization distribution.  The p-value is the
tie-inclusive two-sided tail count with the +1 correction:

    p = (1 + #{m : |t_m| >= |t_obs|}) / (M + 1)

For nonnegative global statistics (Mahalanobis) the absolute value is a
no-op and this reduces to a right-tail test.  The exact variant
enumerates every assignment with the observed treated count instead of
sampling, and drops the +1 because the observed assignment is itself a
member of the enumeration.

Statistic evaluation is chunked and vectorized; draw m depends only on
(seed, domain, m), so the assignments are identical under any chunking
or thread count.  A chunk holds as many draws as fit a fixed byte budget
(``CHUNK_WORD_BYTES``), capped at ``CHUNK_MAX_ROWS``.  Chunks
are spread over ``TestConfig.threads`` pool threads, each drawing and
evaluating its chunks in one reused workspace, and ``run_many`` keeps
every product on one BLAS thread, so a draw's statistics do not depend
on either thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from ._workspace import Workspace
from .balance import _Evaluator, instrument_strength
from .data import Dataset, TestConfig
from .errors import MechanismError, StatisticError
from .mechanisms import (DrawTally, MechanismSpec, draw_batch, enumerate_matrix,
                         prepare_sampler)
from .rng import (DOMAIN_BT_EXPOSURE, DOMAIN_BT_INSTRUMENT, DOMAIN_TEST_EXPOSURE,
                  DOMAIN_TEST_INSTRUMENT, DrawStream)

VECTOR_STATISTICS = ("prevalence_diff", "scmd", "iv_bias")
GLOBAL_STATISTICS = ("mahalanobis", "sqrt_mahalanobis")
STATISTICS = VECTOR_STATISTICS + GLOBAL_STATISTICS

# A draw set's stream domain, by (target, whether its mechanism is
# Bernoulli): a target's Bernoulli draws are the same whichever role reads them
_DOMAINS = {
    ("instrument", False): DOMAIN_TEST_INSTRUMENT, ("exposure", False): DOMAIN_TEST_EXPOSURE,
    ("instrument", True): DOMAIN_BT_INSTRUMENT, ("exposure", True): DOMAIN_BT_EXPOSURE,
}

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
# more for block draws) and, above PANEL_UNITS units, one float64 panel of
# the evaluator's product (8 * PANEL_UNITS per draw): about one budget,
# kept for the draw set; no chunk makes a float64 copy of itself.  Above
# N = 32,768 the 32-row floor makes a chunk larger than this, 256 * N
# bytes, still independent of CHUNK_MAX_ROWS.  Chunk rows are a multiple
# of CHUNK_ROW_MULTIPLE.  The multiple was chosen when OpenBLAS split each
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
    per-block counts, or propensities).
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


def _histogram_dict(values: np.ndarray, bins) -> dict:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"bin_edges": [], "counts": []}
    counts, edges = np.histogram(finite, bins=bins)
    return {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def _tail_pvalue(observed, draws: np.ndarray, offset: int = 1):
    """(offset + #{m : |t_m| >= |t_obs|}) / (offset + #defined draws), per column.

    NaN draws count in neither term; a NaN observed value gives NaN.
    """
    with np.errstate(invalid="ignore"):
        tail = (np.abs(draws) >= _tie_threshold(np.abs(observed))).sum(axis=0)
    p = (offset + tail) / (np.isfinite(draws).sum(axis=0) + offset)
    return np.where(np.isfinite(observed), p, np.nan)


def pvalue(t_obs: float, draws) -> float:
    """Tie-inclusive Monte Carlo p-value with the +1 correction.

    NaN draws (undefined statistic values) are excluded; the effective
    number of draws shrinks accordingly.
    """
    d = np.asarray(draws, dtype=np.float64).ravel()
    if d.size == 0:
        raise StatisticError("empty draw sequence")
    if not np.isfinite(t_obs):
        raise StatisticError("observed statistic is not finite")
    if not np.isfinite(d).any():
        raise StatisticError("all draws are undefined")
    return float(_tail_pvalue(t_obs, d))


def resolve_mechanism(mechanism, dataset: Dataset, target: str) -> MechanismSpec:
    """The resolved, validated spec of ``target``'s draw set (None: complete)."""
    if mechanism is None or mechanism == "complete":
        mechanism = MechanismSpec(kind="complete")
    elif isinstance(mechanism, str):
        raise MechanismError(f"mechanism {mechanism!r} needs a full MechanismSpec")
    spec = mechanism.resolved(dataset.target_vector(target))
    spec.validate(dataset.n_units)
    return spec


def _evaluate_rows(rows, m: int, evaluator: _Evaluator, config: TestConfig
                   ) -> tuple[dict, int]:
    """Evaluate all requested statistics over rows [0, m) in chunks.

    ``rows(lo, hi, tally, workspace)`` returns the (hi - lo, N) assignments
    of one chunk and adds its rejected draws to ``tally``.  Each worker
    thread takes chunks in order from one shared iterator and keeps one
    ``Workspace`` for all of them; the workspaces go when this returns.
    """
    shapes = {
        name: (m,) if name in GLOBAL_STATISTICS else (m, evaluator.k)
        for name in evaluator.statistics
    }
    out = {name: np.empty(shape) for name, shape in shapes.items()}
    budget_rows = CHUNK_WORD_BYTES // (8 * evaluator.n)
    rows_per_chunk = min(CHUNK_MAX_ROWS, max(
        CHUNK_ROW_MULTIPLE, budget_rows // CHUNK_ROW_MULTIPLE * CHUNK_ROW_MULTIPLE))
    bounds = list(range(0, m, rows_per_chunk)) + [m]
    chunks = iter([(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo])
    lock = threading.Lock()

    def worker():
        workspace = Workspace()
        tally = DrawTally()
        while True:
            with lock:
                lo, hi = next(chunks, (None, None))
            if lo is None:
                return tally.redraws
            stats = evaluator(rows(lo, hi, tally, workspace), workspace=workspace)
            for name, values in stats.items():
                out[name][lo:hi] = values

    workers = min(config.threads, len(bounds) - 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            redraws = sum(f.result() for f in [pool.submit(worker) for _ in range(workers)])
    else:
        redraws = worker()
    return out, redraws


def _evaluate_mechanism_draws(
    spec: MechanismSpec,
    dataset: Dataset,
    evaluator: _Evaluator,
    config: TestConfig,
    domain: int,
) -> tuple[dict, int]:
    """Evaluate all requested statistics over config.n_draws draws."""
    stream = DrawStream(seed=config.seed, domain=domain)
    sampler = prepare_sampler(spec, dataset.n_units)

    def rows(lo, hi, tally, workspace):
        indices = np.arange(lo, hi, dtype=np.uint64)
        return draw_batch(spec, dataset.n_units, stream, indices, tally, sampler,
                          workspace)

    return _evaluate_rows(rows, config.n_draws, evaluator, config)


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
) -> TestResult:
    vector = draws.ndim == 2
    names = dataset.covariate_names if vector else None
    observed = np.asarray(observed, dtype=np.float64)
    effective = np.isfinite(draws).sum(axis=0)
    for bad, message in ((~np.isfinite(observed),
                          f"observed {statistic} is undefined for the {target}"),
                         (effective == 0, "all draws are undefined")):
        if bad.any():
            if vector:
                message += " for covariate(s): " + ", ".join(
                    names[j] for j in np.flatnonzero(bad))
            raise StatisticError(message)

    with np.errstate(all="ignore"):
        q025, q975 = np.nanquantile(draws, (0.025, 0.975), axis=0)
        summary = {
            "observed": observed,
            "p_value": _tail_pvalue(observed, draws, offset=0 if exact else 1),
            "q025": q025,
            "q975": q975,
            "draw_mean": np.nanmean(draws, axis=0),
            "n_undefined": draws.shape[0] - effective,
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
    ``mechanism=None`` means complete randomization.
    """
    for s in statistics:
        if s not in STATISTICS:
            raise ValueError(f"unknown statistic {s!r}; choose from {STATISTICS}")
    spec = resolve_mechanism(mechanism, dataset, target)
    if exact and spec.kind != "complete":
        raise MechanismError("exact tests enumerate complete randomization only")
    return _draw_set(dataset, target, tuple(statistics), config, spec, exact)


def _draw_set(dataset: Dataset, target: str, statistics: tuple, config: TestConfig,
              spec: MechanismSpec, exact: bool) -> dict[str, TestResult]:
    """Draw (or enumerate) one draw set of a resolved ``spec`` and locate
    the target in it: every randomization distribution goes through here.
    Its stream domain is ``_DOMAINS[target, spec is Bernoulli]``.  The
    fixed bias denominator is the target's own instrument strength.
    """
    vec = dataset.target_vector(target)
    fixed_strength = None
    if "iv_bias" in statistics and config.bias_denominator == "fixed_observed":
        fixed_strength = instrument_strength(vec, dataset.exposure)
        if fixed_strength == 0.0:
            raise StatisticError(
                "observed exposure prevalence difference across the target is zero")
    evaluator = _Evaluator(dataset.covariates, dataset.exposure, statistics,
                           config.bias_denominator, fixed_strength)
    if exact:
        matrix = enumerate_matrix(dataset.n_units, spec.n_treated,
                                  cap=config.enumeration_cap)
        draws, redraws = _evaluate_rows(lambda lo, hi, tally, workspace: matrix[lo:hi],
                                        len(matrix), evaluator, config)
    else:
        draws, redraws = _evaluate_mechanism_draws(
            spec, dataset, evaluator, config, _DOMAINS[target, spec.kind == "bernoulli"])
    if exact and vec.sum() == spec.n_treated:
        # the observed assignment's own enumerated row, evaluated exactly as
        # every draw is, so it always counts itself in the tail
        row = _combination_rank(vec)
        observed = {name: values[row] for name, values in draws.items()}
    else:
        # Monte Carlo, or an exact n_treated that differs from the observed count
        stats = evaluator(vec.astype(np.float64)[None, :])
        observed = {name: values[0] for name, values in stats.items()}
    return {
        name: _summarize(target, name, dataset, observed[name], draws[name],
                         config, spec, exact=exact, n_redraws=redraws)
        for name in statistics
    }


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

    The p-value is the fraction of all C(N, N_T) assignments whose
    |statistic| is at least the observed one; the observed assignment is
    itself one of the enumerated assignments, so p >= 1 / C(N, N_T).
    ``n_treated`` defaults to the target's observed treated count.
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
