"""The golden report corpus: regenerated reports match the committed files.

Strings, ints, bools, nulls and p-values must be equal; other floats may
differ by 1e-12 relative, as last bits may across BLAS builds.  After a
change that moves a report on purpose, run ``python
tests/golden/regenerate.py``: it rewrites the files and prints what moved.
"""

import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regenerate.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_report_matches_golden_file(name):
    with open(golden.path_of(name), encoding="utf-8") as fh:
        expected = json.load(fh)
    moved = [(path, a, b) for path, a, b in golden.changes(expected, golden.document(name))
             if not golden.tolerated(path, a, b)]
    assert not moved, f"{len(moved)} values moved, first: {moved[:5]}"


def test_changes_and_tolerance():
    old = {"a": [1.0, 2.0], "p_value": 0.5, "n": 3, "s": "x"}
    new = {"a": [1.0, 2.0 * (1 + 1e-13)], "p_value": 0.5 * (1 + 1e-15), "n": 3, "t": None}
    found = {path: golden.tolerated(path, a, b) for path, a, b in golden.changes(old, new)}
    assert found == {"a[1]": True, "p_value": False, "s": False, "t": False}
    assert list(golden.moved_fields(old, {**old, "a": [1.5, 3.0]})) == ["a[]"]
