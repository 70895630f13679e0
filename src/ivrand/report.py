"""Report assembly: one JSON document plus delimited plot-data tables.

Every random quantity in the report is reproducible from the input file
and the metadata block; the only nondeterministic field is the creation
timestamp.  Plot tables carry everything needed to re-render the
standard figures (propensity histograms, SCMD dot plot, per-covariate
quantile bands, global-balance distribution overlays) without re-running
the pipeline.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._blas import one_blas_thread
from .comparison import ComparisonResult, assemble_comparison, fit_propensities
from .data import Dataset, TestConfig
from .errors import PropensityError
from .mechanisms import MechanismSpec
from .propensity import PropensityModel, predict
from .propensity import fit_logistic  # noqa: F401  wrapped by name in perfbench/layers.py
from .randtest import (
    GLOBAL_STATISTICS,
    VECTOR_STATISTICS,
    TestResult,
    bin_counts,
    per_covariate_quantiles,
    resolve_mechanism,
    run_many,
)
from .randtest import exact_test  # noqa: F401  wrapped by name in perfbench/layers.py
from .rng import STREAM_VERSION

SCHEMA_VERSION = "3"
SCMD_REFERENCE_THRESHOLD = 0.1   # rule-of-thumb annotation, never a pass/fail rule
DEFAULT_STATISTICS = ("scmd", "iv_bias", "sqrt_mahalanobis")
TARGETS = ("instrument", "exposure")
# the roles whose sqrt_mahalanobis results assemble_comparison reads, in order
COMPARISON_ROLES = (("benchmark", "instrument"), ("reference", "instrument"),
                    ("reference", "exposure"))


@dataclass
class RunReport:
    """Assembled report document and its sidecar plot tables."""

    document: dict
    plot_tables: dict[str, list[dict]]
    comparison: ComparisonResult | None = None

    def to_json(self) -> str:
        return json.dumps(self.document, indent=2, allow_nan=False) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def write_plot_data(self, directory, delimiter: str = ",") -> list[str]:
        os.makedirs(directory, exist_ok=True)
        written = []
        for name, rows in self.plot_tables.items():
            if not rows:
                continue
            path = os.path.join(directory, f"{name}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()),
                                        delimiter=delimiter)
                writer.writeheader()
                writer.writerows(rows)
            written.append(path)
        return written


def _num(value):
    """JSON-safe scalar: NaN/inf become None."""
    value = float(value)
    return value if np.isfinite(value) else None


def _result_dict(result: TestResult, bins="fd") -> dict:
    """Report entry of a global statistic's result."""
    return {
        "target": result.target,
        "statistic": result.statistic,
        "n_draws": int(result.n_draws),
        "alpha": result.alpha,
        "seed": result.seed,
        "mechanism": result.mechanism,
        "exact": result.exact,
        "n_redraws": int(result.n_redraws),
        "observed": _num(result.observed),
        "p_value": _num(result.p_value),
        "q025": _num(result.q025),
        "q975": _num(result.q975),
        "draw_mean": _num(result.draw_mean),
        "n_undefined": int(result.n_undefined),
        "reject_at_alpha": bool(result.reject_at_alpha),
        "histogram": result.histogram(bins),
    }


def _model_dict(model: PropensityModel, names) -> dict:
    return {
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "deviance": _num(model.deviance),
        "separation_flag": model.separation_flag,
        "ridge": model.ridge,
        "coefficients": {
            "intercept": _num(model.intercept),
            **{name: _num(v) for name, v in zip(names, model.slopes)},
        },
    }


def _propensity_section(dataset: Dataset, models, bins) -> tuple[dict, list[dict], list]:
    """Report block, histogram rows and fitted propensities of the
    instrument and exposure models."""
    section = {}
    hist_rows = []
    propensities = []
    for label, vector, model in (("instrument", dataset.instrument, models[0]),
                                 ("exposure", dataset.exposure, models[1])):
        clamp: list = []
        scores = predict(model, dataset.covariates, clamp_counter=clamp)
        propensities.append(scores)
        edges, (hist1, hist0) = bin_counts(scores, bins, (scores[vector == 1],
                                                          scores[vector == 0]))
        section[label] = {
            "model": _model_dict(model, dataset.covariate_names),
            "n_clamped_predictions": int(clamp[0]),
            "histogram": {
                "bin_edges": [float(e) for e in edges],
                "counts_group1": [int(c) for c in hist1],
                "counts_group0": [int(c) for c in hist0],
            },
        }
        for left, right, c0, c1 in zip(edges[:-1], edges[1:], hist0, hist1):
            hist_rows.append({
                "model": label,
                "bin_left": float(left),
                "bin_right": float(right),
                "count_group0": int(c0),
                "count_group1": int(c1),
            })
    return section, hist_rows, propensities


def _comparison_dict(comp: ComparisonResult, bins) -> dict:
    def dist(result: TestResult):
        return {
            "q025": _num(result.q025),
            "q975": _num(result.q975),
            "mean": _num(result.draw_mean),
            "n_draws": int(result.n_draws),
            "n_undefined": int(result.n_undefined),
            "histogram": result.histogram(bins),
        }

    def sep(d):
        return {
            "intervals_disjoint": d.intervals_disjoint,
            "overlap_fraction": _num(d.overlap_fraction),
            "mean_gap": _num(d.mean_gap),
        }

    return {
        "complete_randomization": dist(comp.cr_result),
        "bernoulli_instrument": dist(comp.iv_bt),
        "bernoulli_exposure": dist(comp.exp_bt),
        "observed_sqrt_mahalanobis": {
            "instrument": _num(comp.cr_result.observed),
            "exposure": _num(comp.exp_bt.observed),
        },
        "p_instrument": _num(comp.cr_result.p_value),
        "p_exposure": _num(comp.p_exp),
        "separation": {
            "instrument_vs_exposure": sep(comp.iv_vs_exp),
            "instrument_vs_benchmark": sep(comp.iv_vs_cr),
            "exposure_vs_benchmark": sep(comp.exp_vs_cr),
            "iv_closer": comp.iv_closer,
        },
        "bernoulli_redraws": {
            "instrument": comp.iv_bt.n_redraws,
            "exposure": comp.exp_bt.n_redraws,
        },
        "ridge_fallback_used": comp.ridge_fallback_used,
    }


def _mahalanobis_plot_rows(section: dict) -> tuple[list[dict], list[dict]]:
    """Plot tables of the three distributions in a comparison section."""
    hist_rows = []
    marker_rows = [
        {"series": f"observed_{name}", "value": value}
        for name, value in section["observed_sqrt_mahalanobis"].items()
    ]
    for name, short in (("complete_randomization", "cr"),
                        ("bernoulli_instrument", "iv_bt"),
                        ("bernoulli_exposure", "exp_bt")):
        dist = section[name]
        edges, counts = dist["histogram"]["bin_edges"], dist["histogram"]["counts"]
        for left, right, c in zip(edges[:-1], edges[1:], counts):
            hist_rows.append({
                "distribution": name,
                "bin_left": left,
                "bin_right": right,
                "count": c,
            })
        marker_rows.append({"series": f"{short}_q025", "value": dist["q025"]})
        marker_rows.append({"series": f"{short}_q975", "value": dist["q975"]})
    return hist_rows, marker_rows


@one_blas_thread()
def build_report(
    dataset: Dataset,
    config: TestConfig,
    statistics=DEFAULT_STATISTICS,
    mechanism: MechanismSpec | str | None = None,
    ridge: float = 0.0,
    hist_bins="fd",
    exact: bool = False,
    source: str = "",
) -> RunReport:
    """Run the full pipeline and assemble the report document.

    A negative ``ridge`` raises ``ValueError``.  Each target, the instrument
    and then the exposure, is tested with every statistic against its own
    draw set, conditioned on its own treated count (or per-block counts);
    ``per_covariate`` holds the instrument's rows, then the exposure's.
    A draw set's roles are (kind, target) pairs: each target's ``"test"``
    (none without statistics), the ``"benchmark"`` (the instrument's
    complete set at its observed count) and each target's Bernoulli
    ``"reference"``; each (target, mechanism) is drawn once.  The
    comparison, also ``RunReport.comparison``, reads the benchmark and the
    references.  An observed statistic undefined for either target raises
    ``StatisticError``.  With ``exact`` there is no comparison, each test
    enumerates the target's complete-randomization set, and either count
    may exceed the cap (``CapExceededError``).  The propensity
    section, the comparison and a ``"bernoulli"`` mechanism use the one pair
    of models from ``fit_propensities``, each predicted once; with
    ``"bernoulli"`` each target is drawn from its own model's propensities,
    the instrument's from ``models[0]`` and the exposure's from
    ``models[1]``.
    """
    statistics = tuple(statistics)
    try:
        models = fit_propensities(dataset, ridge)
        prop_section, prop_rows, scores = _propensity_section(dataset, models, hist_bins)
    except PropensityError as err:
        # degenerate designs (e.g. a constant covariate) must not block
        # exact tests, which never need the fitted propensities
        if not exact:
            raise
        models, scores, prop_section, prop_rows = None, None, {"error": str(err)}, []
    bernoulli = {} if exact else {t: MechanismSpec.bernoulli(p) for t, p in zip(TARGETS, scores)}
    covariate_means = {
        name: _num(dataset.covariates[:, j].mean())
        for j, name in enumerate(dataset.covariate_names)
    }
    metadata = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "source": str(source),
        "seed": config.seed,
        "stream_version": STREAM_VERSION,
        "n_draws": config.n_draws,
        "alpha": config.alpha,
        "statistics": list(statistics),
        "mechanism": mechanism.describe() if isinstance(mechanism, MechanismSpec)
        else {"kind": mechanism or "complete"},
        "bias_denominator": config.bias_denominator,
        "threads": config.threads,
        "exact": exact,
    }
    document: dict = {
        "schema_version": SCHEMA_VERSION,
        "metadata": metadata,
        "dataset_summary": {
            "n_units": dataset.n_units,
            "n_covariates": dataset.n_covariates,
            "covariate_names": list(dataset.covariate_names),
            "n_treated_instrument": dataset.n_treated_instrument,
            "n_treated_exposure": dataset.n_treated_exposure,
            "covariate_means": covariate_means,
        },
    }
    document["propensity"] = prop_section
    tables: dict[str, list[dict]] = {"propensity_hist": prop_rows}

    vector_stats = [s for s in statistics if s in VECTOR_STATISTICS]
    global_stats = [s for s in statistics if s in GLOBAL_STATISTICS]

    # One entry [target, resolved spec, statistics, roles] per draw set, the
    # tests first.  Specs of one target that are one object, or complete at
    # one count, are one set, drawn with the statistics of every role.
    roster: list[list] = []

    def enter(role, mech, stats) -> None:
        spec = resolve_mechanism(mech, dataset, role[1])
        for target, s, have, roles in roster:
            if target == role[1] and (s is spec or s.kind == spec.kind == "complete"
                                      and s.n_treated == spec.n_treated):
                have.extend(name for name in stats if name not in have)
                roles.append(role)
                return
        roster.append([role[1], spec, list(stats), [role]])

    if statistics:
        for target in TARGETS:
            enter(("test", target), bernoulli.get(target, mechanism)
                  if mechanism == "bernoulli" else mechanism, statistics)
    if not exact:
        for role, mech in zip(COMPARISON_ROLES, (None, *bernoulli.values())):
            enter(role, mech, ("sqrt_mahalanobis",))
    per_covariate: dict = {s: [] for s in vector_stats}
    results = {}
    for target, spec, stats, roles in roster:
        drawn = run_many(dataset, target, stats, config, spec, exact=exact)
        # a test's (M, K) vector draws are dropped once its rows are built,
        # so only one target's are alive at a time
        for s in drawn.keys() & set(vector_stats):
            per_covariate[s] += per_covariate_quantiles(drawn.pop(s))
        results.update(dict.fromkeys(roles, drawn))

    scmd = per_covariate.get("scmd", [])
    k = dataset.n_covariates
    scmd_rows = [
        {
            "covariate": z_row["covariate"],
            "scmd_instrument": z_row["observed"],
            "scmd_exposure": d_row["observed"],
            "reference_threshold": SCMD_REFERENCE_THRESHOLD,
        }
        for z_row, d_row in zip(scmd[:k], scmd[k:])
    ]
    document["scmd_table"] = {
        "reference_threshold": SCMD_REFERENCE_THRESHOLD,
        "rows": scmd_rows,
    }
    tables["scmd_dotplot"] = scmd_rows
    document["per_covariate"] = per_covariate
    for s, rows in per_covariate.items():
        tables[f"per_covariate_{s}"] = rows

    document["global"] = {
        target: {s: _result_dict(results["test", target][s], hist_bins) for s in global_stats}
        for target in TARGETS
    }

    if exact:
        comp = document["comparison"] = document["case"] = None
    else:
        comp = assemble_comparison(
            *(results[role]["sqrt_mahalanobis"] for role in COMPARISON_ROLES),
            models, ridge, config.alpha)
        document["comparison"] = section = _comparison_dict(comp, hist_bins)
        document["case"] = {
            "label": comp.case.label,
            "recommendation": comp.case.recommendation,
            "reject_instrument": comp.case.reject_instrument,
            "reject_exposure": comp.case.reject_exposure,
            "p_instrument": _num(comp.cr_result.p_value),
            "p_exposure": _num(comp.p_exp),
            "alpha": config.alpha,
        }
        md_hist, md_markers = _mahalanobis_plot_rows(section)
        tables["mahalanobis_hist"] = md_hist
        tables["mahalanobis_observed"] = md_markers

    return RunReport(document=document, plot_tables=tables, comparison=comp)


def compare_mechanisms(dataset: Dataset, config: TestConfig | None = None,
                       ridge: float = 0.0) -> ComparisonResult:
    """The instrument-vs-exposure comparison: the ``comparison`` of a report
    with no statistics, which draws the comparison's three sets only."""
    return build_report(dataset, config or TestConfig(), statistics=(), ridge=ridge).comparison
