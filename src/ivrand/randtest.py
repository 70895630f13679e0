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
(seed, domain, m), so results are identical under any chunking or
thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .balance import PINV_RCOND
from .data import Dataset, TestConfig
from .errors import MechanismError, StatisticError
from .mechanisms import DrawTally, MechanismSpec, draw_batch, enumerate_matrix
from .rng import DOMAIN_TEST_EXPOSURE, DOMAIN_TEST_INSTRUMENT, DrawStream

VECTOR_STATISTICS = ("prevalence_diff", "scmd", "iv_bias")
GLOBAL_STATISTICS = ("mahalanobis", "sqrt_mahalanobis")
STATISTICS = VECTOR_STATISTICS + GLOBAL_STATISTICS

_TARGET_DOMAINS = {
    "instrument": DOMAIN_TEST_INSTRUMENT,
    "exposure": DOMAIN_TEST_EXPOSURE,
}

# Ties in |t| are counted up to this relative slack so that values that
# are mathematically equal but rounded differently by different BLAS
# paths still tie.  Widening ties can only increase the p-value, which
# keeps the test valid.
TIE_RTOL = 1e-12


def _tie_threshold(abs_obs):
    return abs_obs * (1.0 - TIE_RTOL)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one randomization test.

    For covariate-specific statistics the observed value, p-value,
    quantiles, undefined-draw counts, and rejection flags are arrays
    with one entry per covariate; for global statistics they are
    scalars.  ``draws`` holds the statistic evaluated on every draw
    ((M,) or (M, K)).
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


def pvalue(t_obs: float, draws) -> float:
    """Tie-inclusive Monte Carlo p-value with the +1 correction.

    NaN draws (undefined statistic values) are excluded; the effective
    number of draws shrinks accordingly.
    """
    d = np.asarray(draws, dtype=np.float64)
    if d.size == 0:
        raise StatisticError("empty draw sequence")
    if not np.isfinite(t_obs):
        raise StatisticError("observed statistic is not finite")
    d = d[np.isfinite(d)]
    if d.size == 0:
        raise StatisticError("all draws are undefined")
    count = int((np.abs(d) >= _tie_threshold(abs(t_obs))).sum())
    return (1 + count) / (d.size + 1)


class _Evaluator:
    """Vectorized evaluation of balance statistics over draw chunks.

    Uses globally centered covariates so the total-scatter identity for
    the pooled covariance is well conditioned; centering changes no
    statistic (mean differences and within-group covariances are shift
    invariant).
    """

    def __init__(self, dataset: Dataset, statistics, bias_denominator_mode: str,
                 fixed_strength: float | None):
        x = dataset.covariates
        self.n = x.shape[0]
        self.k = x.shape[1]
        self.xc = x - x.mean(axis=0)
        self.col_sums = self.xc.sum(axis=0)
        self.xc_sq = self.xc**2
        self.sq_sums = self.xc_sq.sum(axis=0)
        # whiten @ whiten.T = T+, the pseudo-inverse of the total scatter
        # T = xc^T xc, cut off like the covariance pseudo-inverse in balance
        eigval, eigvec = np.linalg.eigh(self.xc.T @ self.xc)
        kept = eigval > PINV_RCOND * max(eigval[-1], 0.0)
        self.whiten = eigvec[:, kept] / np.sqrt(eigval[kept])
        self.exposure = dataset.exposure.astype(np.float64)
        self.exposure_sum = float(self.exposure.sum())
        self.statistics = tuple(statistics)
        self.bias_mode = bias_denominator_mode
        self.fixed_strength = fixed_strength

    def __call__(self, z_chunk: np.ndarray, own_strength: bool = False) -> dict:
        """Statistics for a (B, N) chunk of assignments.

        With ``own_strength`` the bias denominator is each row's own
        exposure prevalence difference (used for observed vectors);
        otherwise the configured mode applies.
        """
        z = z_chunk.astype(np.float64)
        n1 = z.sum(axis=1)
        n0 = self.n - n1
        s1 = z @ self.xc
        s0 = self.col_sums[None, :] - s1
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = s1 / n1[:, None] - s0 / n0[:, None]

        out: dict[str, np.ndarray] = {}
        if "prevalence_diff" in self.statistics:
            out["prevalence_diff"] = diff
        if "scmd" in self.statistics:
            q1 = z @ self.xc_sq
            q0 = self.sq_sums[None, :] - q1
            with np.errstate(divide="ignore", invalid="ignore"):
                v1 = np.maximum(q1 - s1**2 / n1[:, None], 0.0) / (n1 - 1.0)[:, None]
                v0 = np.maximum(q0 - s0**2 / n0[:, None], 0.0) / (n0 - 1.0)[:, None]
            v1 = np.where((n1 > 1)[:, None], v1, 0.0)
            v0 = np.where((n0 > 1)[:, None], v0, 0.0)
            pooled = np.sqrt((v1 + v0) / 2.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = diff / pooled
            out["scmd"] = np.where(diff == 0.0, 0.0,
                                   np.where(pooled == 0.0, np.nan, ratio))
        if "iv_bias" in self.statistics:
            if own_strength or self.bias_mode == "per_draw":
                t1 = z @ self.exposure
                with np.errstate(divide="ignore", invalid="ignore"):
                    strength = t1 / n1 - (self.exposure_sum - t1) / n0
                with np.errstate(divide="ignore", invalid="ignore"):
                    bias = diff / strength[:, None]
                out["iv_bias"] = np.where(strength[:, None] == 0.0, np.nan, bias)
            else:
                out["iv_bias"] = diff / self.fixed_strength
        if "mahalanobis" in self.statistics or "sqrt_mahalanobis" in self.statistics:
            md = self._mahalanobis(n1, n0, diff)
            if "mahalanobis" in self.statistics:
                out["mahalanobis"] = md
            if "sqrt_mahalanobis" in self.statistics:
                out["sqrt_mahalanobis"] = np.sqrt(md)
        return out

    def _mahalanobis(self, n1, n0, diff) -> np.ndarray:
        """Closed form of d^T S+ d, S the pooled covariance of d.

        The pooled within-group scatter is the rank-one downdate
        T - c d d^T of the total scatter (c = N1 N0 / N), so by
        Sherman-Morrison M = (N - 2) c a / (1 - c a) with a = d^T T+ d.
        1 - c a = 0 means a covariate is constant within both groups,
        i.e. perfectly separated, and M is undefined (NaN), as SCMD is
        with a zero standardizer.
        """
        whitened = diff @ self.whiten
        ca = n1 * n0 / self.n * np.einsum("bk,bk->b", whitened, whitened)
        with np.errstate(divide="ignore", invalid="ignore"):
            md = (self.n - 2.0) * ca / (1.0 - ca)
        defined = (n1 >= 2) & (n0 >= 2) & (1.0 - ca > PINV_RCOND)
        return np.where(defined, md, np.nan)


def _resolve_mechanism(mechanism, dataset: Dataset, target: str,
                       config: TestConfig) -> MechanismSpec:
    if mechanism is None:
        mechanism = config.mechanism
    if isinstance(mechanism, str):
        if mechanism != "complete":
            raise MechanismError(
                f"mechanism {mechanism!r} needs a full MechanismSpec"
            )
        mechanism = MechanismSpec(kind="complete")
    spec = mechanism.resolved(dataset.target_vector(target))
    spec.validate(dataset.n_units)
    return spec


def _evaluate_rows(rows, m: int, evaluator: _Evaluator, config: TestConfig
                   ) -> tuple[dict, int]:
    """Evaluate all requested statistics over rows [0, m) in chunks.

    ``rows(lo, hi, tally)`` returns the (hi - lo, N) assignments of one
    chunk and adds its rejected draws to ``tally``.
    """
    shapes = {
        name: (m,) if name in GLOBAL_STATISTICS else (m, evaluator.k)
        for name in evaluator.statistics
    }
    out = {name: np.empty(shape) for name, shape in shapes.items()}
    bounds = list(range(0, m, config.chunk_draws)) + [m]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]

    def work(chunk):
        lo, hi = chunk
        tally = DrawTally()
        stats = evaluator(rows(lo, hi, tally))
        for name, values in stats.items():
            out[name][lo:hi] = values
        return tally.redraws

    if config.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            redraws = sum(pool.map(work, chunks))
    else:
        redraws = sum(work(c) for c in chunks)
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

    def rows(lo, hi, tally):
        indices = np.arange(lo, hi, dtype=np.uint64)
        return draw_batch(spec, dataset.n_units, stream, indices, tally)

    return _evaluate_rows(rows, config.n_draws, evaluator, config)


def _observed_stats(dataset: Dataset, target: str, evaluator: _Evaluator) -> dict:
    vec = dataset.target_vector(target).astype(np.float64)[None, :]
    stats = evaluator(vec, own_strength=True)
    return {name: values[0] for name, values in stats.items()}


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
    for bad, message in ((~np.isfinite(observed), f"observed {statistic} is undefined"),
                         (effective == 0, "all draws are undefined")):
        if bad.any():
            if vector:
                message += " for covariate(s): " + ", ".join(
                    names[j] for j in np.flatnonzero(bad))
            raise StatisticError(message)

    offset = 0 if exact else 1
    with np.errstate(invalid="ignore"):
        tail = (np.abs(draws) >= _tie_threshold(np.abs(observed))).sum(axis=0)
    with np.errstate(all="ignore"):
        summary = {
            "observed": observed,
            "p_value": (offset + tail) / (effective + offset),
            "q025": np.nanquantile(draws, 0.025, axis=0),
            "q975": np.nanquantile(draws, 0.975, axis=0),
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
    """
    if target not in _TARGET_DOMAINS:
        raise ValueError(f"target must be 'instrument' or 'exposure', got {target!r}")
    for s in statistics:
        if s not in STATISTICS:
            raise ValueError(f"unknown statistic {s!r}; choose from {STATISTICS}")
    spec = _resolve_mechanism(mechanism, dataset, target, config)
    fixed_strength = None
    if "iv_bias" in statistics:
        fixed_strength = _fixed_strength_for(dataset, target, "iv_bias", config)
    evaluator = _Evaluator(dataset, tuple(statistics), config.bias_denominator,
                           fixed_strength)
    if exact:
        if spec.kind != "complete":
            raise MechanismError("exact tests enumerate complete randomization only")
        matrix = enumerate_matrix(dataset.n_units, spec.n_treated,
                                  cap=config.enumeration_cap)
        draws, redraws = _evaluate_rows(lambda lo, hi, tally: matrix[lo:hi],
                                        len(matrix), evaluator, config)
        vec = dataset.target_vector(target).astype(np.int8)
        match = np.flatnonzero((matrix == vec[None, :]).all(axis=1))
    else:
        draws, redraws = _evaluate_mechanism_draws(spec, dataset, evaluator, config,
                                                   _TARGET_DOMAINS[target])
        match = []
    if len(match):
        # the observed assignment's own enumerated row, evaluated exactly as
        # every draw is, so it always counts itself in the tail
        observed = {name: values[match[0]] for name, values in draws.items()}
    else:
        # Monte Carlo, or an exact n_treated that differs from the observed count
        observed = _observed_stats(dataset, target, evaluator)
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
    statistic: str | None = None,
) -> TestResult:
    """Monte Carlo randomization test of one statistic for one target."""
    config = config or TestConfig()
    statistic = statistic or config.statistic
    return run_many(dataset, target, (statistic,), config, mechanism)[statistic]


def exact_test(
    dataset: Dataset,
    target: str,
    n_treated: int | None = None,
    statistic: str | None = None,
    config: TestConfig | None = None,
) -> TestResult:
    """Exact randomization test over the full complete-randomization set.

    The p-value is the fraction of all C(N, N_T) assignments whose
    |statistic| is at least the observed one; the observed assignment is
    itself one of the enumerated assignments, so p >= 1 / C(N, N_T).
    ``n_treated`` defaults to the target's observed treated count.
    """
    config = config or TestConfig()
    statistic = statistic or config.statistic
    spec = MechanismSpec(kind="complete") if n_treated is None else (
        MechanismSpec.complete(n_treated))
    return run_many(dataset, target, (statistic,), config, spec, exact=True)[statistic]


def _fixed_strength_for(dataset, target, statistic, config):
    if statistic != "iv_bias" or config.bias_denominator != "fixed_observed":
        return None
    z = dataset.target_vector(target)
    d = dataset.exposure.astype(np.float64)
    strength = float(d[z == 1].mean() - d[z == 0].mean())
    if strength == 0.0:
        raise StatisticError(
            "observed exposure prevalence difference across the target is zero"
        )
    return strength


def per_covariate_quantiles(
    dataset: Dataset,
    target: str,
    mechanism: MechanismSpec | str | None,
    config: TestConfig,
    statistic: str = "scmd",
    result: TestResult | None = None,
) -> list[dict]:
    """Per-covariate quantile bands with both observed vectors located.

    One row per covariate: the 2.5%/97.5% band of the target's
    randomization distribution, the observed instrument and exposure
    values of the statistic, and p-values for each observed vector
    against the same shared draw set.  Pass an already-computed
    ``result`` for this target/statistic to reuse its draws.
    """
    if statistic not in VECTOR_STATISTICS:
        raise ValueError("per-covariate bands need a covariate-specific statistic")
    if result is None:
        result = run_many(dataset, target, (statistic,), config, mechanism)[statistic]
    elif result.statistic != statistic or result.target != target:
        raise ValueError("result does not match the requested target/statistic")
    other = "exposure" if target == "instrument" else "instrument"
    evaluator = _Evaluator(dataset, (statistic,), config.bias_denominator,
                           _fixed_strength_for(dataset, target, statistic, config))
    other_observed = _observed_stats(dataset, other, evaluator)[statistic]
    rows = []
    for j, name in enumerate(dataset.covariate_names):
        observed = {
            target: float(result.observed[j]),
            other: float(other_observed[j]),
        }
        p = {target: float(result.p_value[j])}
        p[other] = (
            pvalue(observed[other], result.draws[:, j])
            if np.isfinite(observed[other]) else None
        )
        rows.append({
            "covariate": name,
            "observed_instrument": observed["instrument"],
            "observed_exposure": observed["exposure"],
            "q025": float(result.q025[j]),
            "q975": float(result.q975[j]),
            "p_instrument": p["instrument"],
            "p_exposure": p["exposure"],
            "n_undefined": int(result.n_undefined[j]),
        })
    return rows
