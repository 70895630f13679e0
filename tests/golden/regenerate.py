"""The golden report corpus: seven reports that pin what ivrand computes.

    python tests/golden/regenerate.py

rewrites ``tests/golden/<case>.json`` from the current code and prints, for
each file that changed, every moved field with the number of values that
moved and their largest relative change (list indices are folded into
``[]``).  ``tests/test_golden.py`` regenerates the same reports and compares
them with the files.

Every case is a report on synth data (the ``confounded-exposure`` preset,
K = 3, seed 5) at 200 draws and seed 3, stored without
``metadata.created_utc`` and ``metadata.source``.  N is 300, except the
``panels`` case (N = 3,000, three panels of the evaluator's product) and the
``exact`` case (N = 20).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from ivrand import (PRESETS, Dataset, MechanismSpec, ScenarioSpec,  # noqa: E402
                    TestConfig, generate)
from ivrand.report import build_report  # noqa: E402

CONFIG = TestConfig(n_draws=200, seed=3)
RTOL = 1e-12
# fields that must be equal, not only close, as strings, ints, bools and
# nulls must
EXACT_FLOAT_KEYS = ("p_value", "p_instrument", "p_exposure")


def _synth(n: int = 300) -> Dataset:
    spec = ScenarioSpec(n_units=n, k_covariates=3, seed=5, **PRESETS["confounded-exposure"])
    return generate(spec)[0]


def _block():
    """Blocks on the binary covariate b1, which leaves the covariates."""
    ds = _synth()
    keep = [j for j, name in enumerate(ds.covariate_names) if name != "b1"]
    labels = ds.covariates[:, ds.covariate_names.index("b1")]
    rest = Dataset(covariates=ds.covariates[:, keep],
                   covariate_names=[ds.covariate_names[j] for j in keep],
                   instrument=ds.instrument, exposure=ds.exposure)
    return build_report(rest, CONFIG, mechanism=MechanismSpec.block(labels.tolist()))


CASES = {
    "complete": lambda: build_report(_synth(), CONFIG),
    "scmd": lambda: build_report(_synth(), CONFIG, statistics=("scmd",)),
    "block": _block,
    "bernoulli": lambda: build_report(_synth(), CONFIG, mechanism="bernoulli"),
    "per_draw": lambda: build_report(
        _synth(), dataclasses.replace(CONFIG, bias_denominator="per_draw")),
    "panels": lambda: build_report(_synth(3_000), CONFIG),
    "exact": lambda: build_report(_synth(20), CONFIG, exact=True),
}


def path_of(name: str) -> str:
    return os.path.join(HERE, f"{name}.json")


def document(name: str) -> dict:
    """The case's report as its file holds it."""
    doc = CASES[name]().document
    del doc["metadata"]["created_utc"], doc["metadata"]["source"]
    return json.loads(json.dumps(doc, allow_nan=False))


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _is_float(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(a, b) -> float:
    """|a - b| relative to the larger; inf unless both are numbers."""
    if not (_is_float(a) and _is_float(b)):
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def changes(old: dict, new: dict):
    """``(path, old, new)`` for each leaf that differs in any bit; a leaf
    missing on one side is ``None`` there."""
    old_leaves, new_leaves = dict(_leaves(old)), dict(_leaves(new))
    for path in dict.fromkeys([*old_leaves, *new_leaves]):
        a, b = old_leaves.get(path), new_leaves.get(path)
        if (path in old_leaves) != (path in new_leaves) or type(a) is not type(b) or a != b:
            yield path, a, b


def tolerated(path: str, a, b) -> bool:
    """Floats other than p-values may move by ``RTOL`` relative."""
    return (isinstance(a, float) and isinstance(b, float)
            and not path.endswith(EXACT_FLOAT_KEYS) and relative_change(a, b) <= RTOL)


def moved_fields(old: dict, new: dict) -> dict[str, tuple[int, float]]:
    """Each moved field, indices folded: (values moved, largest relative change)."""
    out: dict[str, tuple[int, float]] = {}
    for path, a, b in changes(old, new):
        field = re.sub(r"\[\d+\]", "[]", path)
        count, largest = out.get(field, (0, 0.0))
        out[field] = (count + 1, max(largest, relative_change(a, b)))
    return out


def main() -> None:
    for name in CASES:
        new = document(name)
        try:
            with open(path_of(name), encoding="utf-8") as fh:
                old = json.load(fh)
        except FileNotFoundError:
            old = None
        with open(path_of(name), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(new, indent=2) + "\n")
        if old is None:
            print(f"{name}.json: new")
            continue
        moved = moved_fields(old, new)
        print(f"{name}.json: " + (f"{len(moved)} fields moved" if moved else "unchanged"))
        for field, (count, largest) in moved.items():
            change = ("some added, removed or retyped" if largest == float("inf")
                      else f"largest relative change {largest:.3g}")
            print(f"  {field}: {count} values, {change}")


if __name__ == "__main__":
    main()
