"""Synthetic datasets with known assignment mechanisms.

The generator family is deliberately frozen so that calibration
thresholds in the test suite stay stable: two standard-normal
covariates, the remainder Bernoulli(0.3), a fixed alternating direction
for every confounding term, and logit-linear assignment models.  The
returned ground truth contains every constant needed to recompute each
unit's generating probabilities exactly.

Instrument models:

``randomized``
    complete randomization with N/2 treated.
``confounded``
    Bernoulli trials with logit strength * index.  With
    ``assignment_coupling`` > 0 the exposure is drawn from the same
    Bernoulli law through a Gaussian copula on the latent uniforms, so
    instrument and exposure are equally confounded draws of one shared
    selection process (marginals preserved, realizations correlated).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .errors import IvrandError
from .propensity import _expit
from .rng import DOMAIN_SYNTH, DrawStream

BERNOULLI_RATE = 0.3
MAX_REGENERATIONS = 100


@dataclass(frozen=True)
class ScenarioSpec:
    """Generating mechanism for one synthetic study."""

    n_units: int
    k_covariates: int = 5
    instrument_model: str = "randomized"       # or "confounded"
    instrument_strength: float = 0.0
    instrument_effect: float = 1.0             # effect of Z on the D logit
    confounding_strength: float = 0.0          # covariate effect on the D logit
    assignment_coupling: float = 0.0           # copula corr of Z and D latents
    seed: int = 0

    def __post_init__(self):
        if self.n_units < 20:
            raise ValueError("n_units must be at least 20")
        if self.k_covariates < 1:
            raise ValueError("k_covariates must be at least 1")
        if self.instrument_model not in ("randomized", "confounded"):
            raise ValueError("instrument_model must be 'randomized' or 'confounded'")
        for value in (self.instrument_strength, self.instrument_effect,
                      self.confounding_strength, self.assignment_coupling):
            if not np.isfinite(value):
                raise ValueError("scenario strengths must be finite")
        if self.assignment_coupling:
            if not 0.0 < self.assignment_coupling < 1.0:
                raise ValueError("assignment_coupling must lie in (0, 1)")
            if (self.instrument_model != "confounded"
                    or self.instrument_effect != 0.0
                    or self.instrument_strength != self.confounding_strength):
                raise ValueError(
                    "coupled assignments need a confounded instrument, equal "
                    "strengths, and a zero instrument effect"
                )


# Named presets for the command line.  "confounded-exposure" is the
# textbook favorable case (clean instrument, self-selected exposure);
# "both-confounded" draws instrument and exposure from one shared
# selection process so both are equally far from randomized.
PRESETS = {
    "all-randomized": dict(instrument_model="randomized",
                           confounding_strength=0.0, instrument_effect=1.0),
    "confounded-exposure": dict(instrument_model="randomized",
                                confounding_strength=2.0, instrument_effect=1.0),
    "both-confounded": dict(instrument_model="confounded",
                            instrument_strength=1.0,
                            confounding_strength=1.0, instrument_effect=0.0,
                            assignment_coupling=0.95),
    "independently-confounded": dict(instrument_model="confounded",
                                     instrument_strength=2.0,
                                     confounding_strength=2.0,
                                     instrument_effect=0.0),
}


def _confounder_index(x: np.ndarray, spec: ScenarioSpec) -> tuple[np.ndarray, dict]:
    """Standardized alternating-sign linear index of the covariates."""
    k = spec.k_covariates
    n_normal = min(2, k)
    centers = np.array([0.0] * n_normal + [BERNOULLI_RATE] * (k - n_normal))
    scales = np.array([1.0] * n_normal
                      + [np.sqrt(BERNOULLI_RATE * (1 - BERNOULLI_RATE))] * (k - n_normal))
    weights = np.array([(-1.0) ** j for j in range(k)]) / np.sqrt(k)
    index = ((x - centers) / scales) @ weights
    constants = {
        "centers": centers.tolist(),
        "scales": scales.tolist(),
        "weights": weights.tolist(),
    }
    return index, constants


def _draw_binary_nondegenerate(probs: np.ndarray, stream: DrawStream,
                               label: str) -> tuple[np.ndarray, int]:
    """Bernoulli vector with >= 1 unit per group, regenerating on failure.

    Each retry uses the next sub-seed; the number of regenerations is
    returned for the ground-truth tally.
    """
    for attempt in range(MAX_REGENERATIONS):
        rng = stream.generator(attempt)
        values = (rng.random(len(probs)) < probs).astype(np.int8)
        if 0 < values.sum() < len(values):
            return values, attempt
    raise IvrandError(f"could not generate a non-degenerate {label} vector")


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each probability in [0, 1].

    ``statistics.NormalDist.inv_cdf`` (Wichura's AS241) on (0, 1), within a
    few ulp of ``scipy.special.ndtri``; -inf at 0 and +inf at 1, as ndtri,
    where inv_cdf would raise.
    """
    inv_cdf = NormalDist().inv_cdf
    return np.array([-np.inf if v == 0.0 else np.inf if v == 1.0 else inv_cdf(v)
                     for v in p.tolist()])


def _draw_coupled_pair(probs: np.ndarray, coupling: float, stream: DrawStream
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """Two correlated Bernoulli(probs) vectors via a Gaussian copula."""
    thresholds = _normal_quantile(probs)
    for attempt in range(MAX_REGENERATIONS):
        rng = stream.generator(attempt)
        g1 = rng.standard_normal(len(probs))
        g2 = coupling * g1 + np.sqrt(1.0 - coupling**2) * rng.standard_normal(len(probs))
        z = (g1 < thresholds).astype(np.int8)
        d = (g2 < thresholds).astype(np.int8)
        if 0 < z.sum() < len(z) and 0 < d.sum() < len(d):
            return z, d, attempt
    raise IvrandError("could not generate non-degenerate coupled vectors")


def generate(spec: ScenarioSpec) -> tuple[Dataset, dict]:
    """Generate a dataset plus the ground truth that produced it."""
    n, k = spec.n_units, spec.k_covariates
    n_normal = min(2, k)
    cov_rng = DrawStream(spec.seed, DOMAIN_SYNTH).generator(0)
    x = np.empty((n, k))
    x[:, :n_normal] = cov_rng.standard_normal((n, n_normal))
    if k > n_normal:
        x[:, n_normal:] = (cov_rng.random((n, k - n_normal)) < BERNOULLI_RATE)

    index, constants = _confounder_index(x, spec)
    ground_truth: dict = {
        "spec": {
            "n_units": n,
            "k_covariates": k,
            "instrument_model": spec.instrument_model,
            "instrument_strength": spec.instrument_strength,
            "instrument_effect": spec.instrument_effect,
            "confounding_strength": spec.confounding_strength,
            "assignment_coupling": spec.assignment_coupling,
            "seed": spec.seed,
        },
        "covariates": {"n_normal": n_normal, "bernoulli_rate": BERNOULLI_RATE,
                       **constants},
    }

    z_stream = DrawStream(spec.seed, DOMAIN_SYNTH + 1)
    if spec.assignment_coupling:
        probs = _expit(spec.instrument_strength * index)
        z, d, regen = _draw_coupled_pair(probs, spec.assignment_coupling, z_stream)
        shared = {
            "mechanism": "bernoulli",
            "logit": {"intercept": 0.0,
                      "index_coefficient": spec.instrument_strength},
        }
        ground_truth["instrument"] = dict(shared)
        ground_truth["exposure"] = {
            **shared,
            "logit": {"intercept": 0.0, "instrument_effect": 0.0,
                      "index_coefficient": spec.confounding_strength},
            "coupled_to_instrument": spec.assignment_coupling,
        }
        ground_truth["regenerations"] = {"instrument": int(regen), "exposure": int(regen)}
    else:
        if spec.instrument_model == "randomized":
            n_treated = n // 2
            rng = z_stream.generator(0)
            z = np.zeros(n, dtype=np.int8)
            z[rng.permutation(n)[:n_treated]] = 1
            ground_truth["instrument"] = {"mechanism": "complete",
                                          "n_treated": n_treated}
            z_regen = 0
        else:
            probs = _expit(spec.instrument_strength * index)
            z, z_regen = _draw_binary_nondegenerate(probs, z_stream, "instrument")
            ground_truth["instrument"] = {
                "mechanism": "bernoulli",
                "logit": {"intercept": 0.0,
                          "index_coefficient": spec.instrument_strength},
            }

        d_intercept = -spec.instrument_effect / 2.0
        d_probs = _expit(d_intercept + spec.instrument_effect * z
                         + spec.confounding_strength * index)
        d_stream = DrawStream(spec.seed, DOMAIN_SYNTH + 2)
        d, d_regen = _draw_binary_nondegenerate(d_probs, d_stream, "exposure")
        ground_truth["exposure"] = {
            "mechanism": "bernoulli",
            "logit": {
                "intercept": d_intercept,
                "instrument_effect": spec.instrument_effect,
                "index_coefficient": spec.confounding_strength,
            },
        }
        ground_truth["regenerations"] = {"instrument": int(z_regen),
                                         "exposure": int(d_regen)}

    names = tuple(
        [f"x{j + 1}" for j in range(n_normal)]
        + [f"b{j + 1}" for j in range(k - n_normal)]
    )
    dataset = Dataset(covariates=x, covariate_names=names, instrument=z, exposure=d)
    return dataset, ground_truth


def generating_probabilities(ground_truth: dict, covariates: np.ndarray,
                             instrument: np.ndarray | None = None) -> dict:
    """Recompute each unit's generating probabilities from ground truth."""
    gt_cov = ground_truth["covariates"]
    centers = np.asarray(gt_cov["centers"])
    scales = np.asarray(gt_cov["scales"])
    weights = np.asarray(gt_cov["weights"])
    index = ((np.asarray(covariates) - centers) / scales) @ weights
    out: dict = {}
    z_info = ground_truth["instrument"]
    if z_info["mechanism"] == "bernoulli":
        out["instrument"] = _expit(
            z_info["logit"]["intercept"]
            + z_info["logit"]["index_coefficient"] * index
        )
    else:
        out["instrument"] = np.full(len(index), z_info["n_treated"] / len(index))
    if instrument is not None:
        d_logit = ground_truth["exposure"]["logit"]
        out["exposure"] = _expit(
            d_logit["intercept"]
            + d_logit.get("instrument_effect", 0.0) * np.asarray(instrument)
            + d_logit["index_coefficient"] * index
        )
    return out
