"""The benchmark workloads and the checks every report must pass.

Each workload builds its input from the benchmark seed alone, then runs one
public pipeline call per iteration: ``build_report(...).to_json()`` for desk
and exact, and ``cli.main(["test", ...])`` for tall.  ivrand is imported
lazily so that a fresh process can time its own first import.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import time

P_VALUE_KEYS = ("p_value", "p_instrument", "p_exposure")
MAHALANOBIS_RTOL = 1e-8
_CREATED = re.compile(r'"created_utc": "[^"]*"')


def _generate(preset: str, n: int, k: int, seed: int):
    from ivrand.synth import PRESETS, ScenarioSpec, generate

    start = time.perf_counter()
    dataset, _ = generate(ScenarioSpec(n_units=n, k_covariates=k, seed=seed,
                                       **PRESETS[preset]))
    return dataset, time.perf_counter() - start


class Workload:
    """One closed loop: the next pipeline call starts when the last one ends."""

    name = ""
    threads = 1
    exposure_confounded = True
    # whether report_s is scaled by the reference job's time (see run.py)
    scaled = False

    def build(self, seed: int, workdir: str) -> tuple[dict, float]:
        """Inputs for the pipeline call, and the time spent in ``generate``."""
        raise NotImplementedError

    def call(self, inputs: dict) -> str:
        """Run the pipeline once; return the report document's JSON text."""
        raise NotImplementedError

    def expected_draws(self) -> int:
        """The ``n_draws`` every result of a correct report states."""
        return self.draws


class ReportWorkload(Workload):
    """``build_report`` on a synthetic scenario, serialized as a user would."""

    def __init__(self, name, preset, n, k, draws, exact=False):
        self.name = name
        self.preset = preset
        self.n, self.k, self.draws = n, k, draws
        self.exact = exact

    def build(self, seed, workdir):
        from ivrand.data import TestConfig

        dataset, generate_s = _generate(self.preset, self.n, self.k, seed)
        config = TestConfig(n_draws=self.draws, seed=seed, threads=self.threads)
        return {"dataset": dataset, "config": config}, generate_s

    def call(self, inputs):
        from ivrand.report import build_report

        report = build_report(inputs["dataset"], inputs["config"], exact=self.exact)
        return report.to_json()


class ExactWorkload(ReportWorkload):
    """Exact enumeration at N=20, K=4 with 10 treated in both vectors.

    The scenario seed is the first of ``seed * 1000 + j`` whose exposure has
    10 treated units (so all four enumerations are C(20, 10) = 184,756
    assignments), whose exposure prevalence differs across the instrument
    (the bias statistic's denominator), and whose covariates each vary
    within an instrument group (so SCMD is defined).  Small scenarios fail
    these often, and the report would then raise by its stated semantics.
    """

    exposure_confounded = False
    # Interpreter-bound: its wall time follows the host's drifting speed as
    # closely as the pure-Python reference job does.
    scaled = True

    def __init__(self):
        super().__init__("exact", "confounded-exposure", 20, 4, 1, exact=True)

    def build(self, seed, workdir):
        from ivrand.data import TestConfig

        total_s = 0.0
        for j in range(1000):
            dataset, generate_s = _generate(self.preset, self.n, self.k,
                                            seed * 1000 + j)
            total_s += generate_s
            if self._usable(dataset):
                config = TestConfig(n_draws=1, seed=seed, threads=self.threads)
                return {"dataset": dataset, "config": config}, total_s
        raise RuntimeError("no usable exact scenario in 1000 candidates")

    def _usable(self, dataset) -> bool:
        z = dataset.instrument == 1
        d = dataset.exposure
        x = dataset.covariates
        spread = x[z].std(axis=0) + x[~z].std(axis=0)
        return (dataset.n_treated_instrument == self.n // 2
                and dataset.n_treated_exposure == self.n // 2
                and d[z].mean() != d[~z].mean()
                and bool((spread > 0).all()))

    def expected_draws(self):
        return math.comb(self.n, self.n // 2)


class TallWorkload(Workload):
    """``ivrand test`` on a 60,000-row CSV with a 20-level block column."""

    name = "tall"
    threads = 2
    n, k, draws, sites = 60_000, 8, 2_000, 20

    def build(self, seed, workdir):
        import numpy as np

        dataset, generate_s = _generate("both-confounded", self.n, self.k, seed)
        site = np.random.default_rng([seed, self.sites]).integers(0, self.sites, self.n)
        path = os.path.join(workdir, "tall.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instrument", "exposure", *dataset.covariate_names, "site"])
            # repr round-trips every float, so the CLI reads back this dataset
            writer.writerows(
                [int(zi), int(di), *map(repr, row.tolist()), f"site{s:02d}"]
                for zi, di, row, s in zip(dataset.instrument, dataset.exposure,
                                          dataset.covariates, site)
            )
        out = os.path.join(workdir, "report.json")
        argv = ["test", path, "--instrument", "instrument", "--exposure", "exposure",
                "--mechanism", "block", "--block-column", "site",
                "--draws", str(self.draws), "--threads", str(self.threads),
                "--seed", str(seed), "--out", out,
                "--plots-dir", os.path.join(workdir, "plots")]
        return {"dataset": dataset, "argv": argv, "out": out}, generate_s

    def call(self, inputs):
        from ivrand import cli

        code = cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"ivrand test exited with code {code}")
        with open(inputs["out"], encoding="utf-8") as fh:
            return fh.read()


WORKLOADS = {
    w.name: w for w in (
        ReportWorkload("desk", "confounded-exposure", 13_011, 12, 10_000),
        TallWorkload(),
        ExactWorkload(),
    )
}


def _walk(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{path}/{key}", key, value
            yield from _walk(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, f"{path}/{i}")


def _no_constants(token):
    raise ValueError(f"report JSON holds {token}")


def check_report(workload: Workload, inputs: dict, text: str) -> list[str]:
    """Problems with one report document; an empty list means it passed."""
    from ivrand.balance import mahalanobis_from_components, mean_difference_covariance

    problems = []
    doc = json.loads(text, parse_constant=_no_constants)
    exact = doc["metadata"]["exact"]
    draws = workload.expected_draws()
    for path, key, value in _walk(doc):
        if key in P_VALUE_KEYS:
            if not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
                problems.append(f"{path} = {value!r} is not in (0, 1]")
            elif exact and value < 1.0 / draws:
                problems.append(f"{path} = {value!r} is below 1/C(N, N_T)")
        elif key == "n_draws" and (path.startswith("/global") or not exact):
            if value != draws:
                problems.append(f"{path} = {value!r}, expected {draws}")

    dataset = inputs["dataset"]
    x, z = dataset.covariates, dataset.instrument
    diff = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
    oracle = mahalanobis_from_components(
        diff, mean_difference_covariance(x, z)).mahalanobis
    observed = doc["global"]["instrument"]["sqrt_mahalanobis"]["observed"] ** 2
    if not abs(observed - oracle) <= MAHALANOBIS_RTOL * abs(oracle):
        problems.append(f"instrument Mahalanobis {observed!r} != oracle {oracle!r}")

    if workload.exposure_confounded:
        exposure = doc["global"]["exposure"]["sqrt_mahalanobis"]
        if exposure["reject_at_alpha"] is not True:
            problems.append(f"exposure test does not reject (p={exposure['p_value']})")
    return problems


def without_timestamp(text: str) -> str:
    return _CREATED.sub('"created_utc": ""', text, count=1)
