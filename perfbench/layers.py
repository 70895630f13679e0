"""Which ivrand calls are traced, and the per-layer metrics made from them.

A span is named ``<layer>.<function>``, where the layer is the module that
owns the callee.  Every wrap sits at the name the calling module resolves,
so a call from ``comparison`` into ``randtest`` is traced even though
``randtest`` calls the same function untraced from inside itself.
"""

from __future__ import annotations

import statistics

from spans import Tracer, self_times

MB = 1024.0 * 1024.0


def _rows(args, kwargs, result, before):
    return {"rows": int(result.shape[0])}


def _rows_in(args, kwargs, result, before):
    return {"rows": int(args[1].shape[0])}


def _kind_of_self(args, kwargs):
    return {"kind": args[0].kind}


def _tally_before(args, kwargs):
    tally = args[4] if len(args) > 4 else kwargs.get("tally")
    return 0 if tally is None else tally.redraws


def _draw_counts(args, kwargs, result, before):
    tally = args[4] if len(args) > 4 else kwargs.get("tally")
    redraws = 0 if tally is None else tally.redraws - before
    return {"rows": int(result.shape[0]), "redraws": int(redraws)}


def _words(args, kwargs, result, before):
    return {"words": int(result.size)}


def _irls(args, kwargs, result, before):
    return {"fits": 1, "irls_iters": int(result.n_iterations)}


def _records(args, kwargs, result, before):
    return {"reads": 1, "rows": len(result)}


def _json_bytes(args, kwargs, result, before):
    return {"bytes": len(result.encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap every cross-module call of the report pipeline."""
    import ivrand.cli as cli
    import ivrand.comparison as comparison
    import ivrand.data as data
    import ivrand.mechanisms as mechanisms
    import ivrand.randtest as randtest
    import ivrand.report as report
    import ivrand.rng as rng

    w = tracer.wrap
    # the benchmark's own pipeline calls: the roots of every traced report
    w(cli, "main", "cli")
    w(report, "build_report", "report")
    # cli -> data, propensity, report
    w(cli, "load_dataset", "data")
    w(cli, "read_delimited", "data", counts=_records)
    w(cli, "fit_logistic", "propensity", counts=_irls)
    w(cli, "predict", "propensity")
    w(cli, "build_report", "report")
    # data -> data: load_dataset's two stages, resolved in data's globals
    w(data, "read_delimited", "data", counts=_records)
    w(data, "validate_dataset", "data")
    # report -> propensity, randtest, comparison; report's own output
    w(report, "fit_logistic", "propensity", counts=_irls)
    w(report, "predict", "propensity")
    w(report, "run_many", "randtest")
    w(report, "per_covariate_quantiles", "randtest")
    w(report, "exact_test", "randtest")
    w(report, "compare_mechanisms", "comparison")
    w(randtest.TestResult, "histogram", "randtest")
    w(report.RunReport, "to_json", "report", counts=_json_bytes)
    w(report.RunReport, "write", "report")
    w(report.RunReport, "write_plot_data", "report")
    # comparison -> propensity, randtest
    w(comparison, "fit_logistic", "propensity", counts=_irls)
    w(comparison, "predict", "propensity")
    w(comparison, "run_test", "randtest")
    w(comparison, "pvalue", "randtest")
    w(comparison, "_Evaluator", "randtest")
    w(comparison, "_evaluate_mechanism_draws", "randtest")
    # randtest -> mechanisms, thread pool; the evaluator every caller uses
    w(randtest, "draw_batch", "mechanisms", tags=_kind_of_self,
      counts=_draw_counts, before=_tally_before)
    w(randtest, "enumerate_matrix", "mechanisms", counts=_rows)
    w(mechanisms.MechanismSpec, "resolved", "mechanisms", tags=_kind_of_self)
    w(mechanisms.MechanismSpec, "validate", "mechanisms", tags=_kind_of_self)
    w(randtest._Evaluator, "__call__", "randtest", name="evaluate", counts=_rows_in)
    randtest.ThreadPoolExecutor = tracer.pool_class()
    # mechanisms -> rng
    w(mechanisms, "bernoulli_thresholds", "rng")
    w(rng.DrawStream, "word_block", "rng")
    w(rng.DrawStream, "word_block_raw", "rng", counts=_words)


PER_LAYER_UNITS = {
    "rng.words": "count",
    "rng.s": "s",
    "rng.words_per_s": "1/s",
    "rng.bytes_computed": "B",
    "mechanisms.complete.rows": "count",
    "mechanisms.complete.self_s": "s",
    "mechanisms.block.rows": "count",
    "mechanisms.block.self_s": "s",
    "mechanisms.bernoulli.rows": "count",
    "mechanisms.bernoulli.self_s": "s",
    "mechanisms.bernoulli.redraws": "count",
    "mechanisms.chunks": "count",
    "mechanisms.max_chunk_rows": "count",
    "mechanisms.enumerated_rows": "count",
    "mechanisms.enumerate_s": "s",
    "randtest.draws_evaluated": "count",
    "randtest.self_s": "s",
    "randtest.draws_per_s": "1/s",
    "randtest.peak_mb": "MB",
    "propensity.fits": "count",
    "propensity.irls_iters": "count",
    "propensity.fit_s": "s",
    "data.read_calls": "count",
    "data.rows_read": "count",
    "data.read_s": "s",
    "data.validate_s": "s",
    "data.peak_mb": "MB",
    "comparison.self_s": "s",
    "report.self_s": "s",
    "report.serialize_s": "s",
    "report.json_bytes": "B",
    "cli.self_s": "s",
    "synth.generate_s": "s",
    "trace.report_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def report_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline call."""
    own = self_times(spans)
    m = {name: 0.0 for name in PER_LAYER_UNITS}

    def add(key, value):
        m[key] += value

    for span in spans:
        self_s = own[span.id]
        layer, func = span.name.split(".", 1)
        c = span.counts
        if layer in ("comparison", "report", "cli", "randtest"):
            add(f"{layer}.self_s", self_s)
        if layer == "rng":
            add("rng.s", self_s)
            add("rng.words", c.get("words", 0))
        elif layer == "mechanisms":
            kind = span.tags.get("kind")
            if kind:
                add(f"mechanisms.{kind}.self_s", self_s)
            if func == "draw_batch":
                add(f"mechanisms.{kind}.rows", c.get("rows", 0))
                add("mechanisms.chunks", 1)
                m["mechanisms.max_chunk_rows"] = max(m["mechanisms.max_chunk_rows"],
                                                     c.get("rows", 0))
                if kind == "bernoulli":
                    add("mechanisms.bernoulli.redraws", c.get("redraws", 0))
            elif func == "enumerate_matrix":
                add("mechanisms.enumerated_rows", c.get("rows", 0))
                add("mechanisms.enumerate_s", self_s)
        elif layer == "randtest":
            if func == "evaluate":
                add("randtest.draws_evaluated", c.get("rows", 0))
            if span.base_mem is not None:
                m["randtest.peak_mb"] = max(m["randtest.peak_mb"],
                                            (span.max_mem - span.base_mem) / MB)
        elif layer == "propensity":
            if func == "fit_logistic":
                add("propensity.fits", c.get("fits", 0))
                add("propensity.irls_iters", c.get("irls_iters", 0))
                add("propensity.fit_s", self_s)
        elif layer == "data":
            if func == "read_delimited":
                add("data.read_calls", c.get("reads", 0))
                add("data.rows_read", c.get("rows", 0))
                add("data.read_s", self_s)
            elif func == "validate_dataset":
                add("data.validate_s", self_s)
            if span.base_mem is not None:
                m["data.peak_mb"] = max(m["data.peak_mb"],
                                        (span.max_mem - span.base_mem) / MB)
        elif layer == "report" and func == "to_json":
            add("report.serialize_s", self_s)
            add("report.json_bytes", c.get("bytes", 0))

    m["rng.bytes_computed"] = 8.0 * m["rng.words"]
    m["rng.words_per_s"] = m["rng.words"] / m["rng.s"] if m["rng.s"] else 0.0
    m["randtest.draws_per_s"] = (m["randtest.draws_evaluated"] / m["randtest.self_s"]
                                 if m["randtest.self_s"] else 0.0)
    m["trace.report_s"] = wall_s
    m["trace.self_sum_s"] = sum(own.values())
    return m


MEMORY_METRICS = ("randtest.peak_mb", "data.peak_mb")


def run_metrics(timed: list[dict], memory: list[dict], untraced_s: list[float],
                generate_s: float) -> dict[str, float]:
    """Medians over one run's traced calls, plus run-level figures.

    Peak memory comes from the calls traced with ``tracemalloc``, everything
    else from the calls traced without it.
    """
    out = {name: statistics.median(r[name] for r in
                                   (memory if name in MEMORY_METRICS else timed))
           for name in PER_LAYER_UNITS}
    out["synth.generate_s"] = generate_s
    out["trace.overhead_s"] = out["trace.report_s"] - statistics.median(untraced_s)
    return out
