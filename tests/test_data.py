"""Dataset construction, validation, and ingestion round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrand import (
    Dataset,
    TestConfig,
    ValidationError,
    load_dataset,
    validate_dataset,
    write_delimited,
)
from ivrand.data import _coerce_binary, _coerce_numeric, expand_categorical


def _records(z, d, cov):
    return [
        {"z": zi, "d": di, "age": xi}
        for zi, di, xi in zip(z, d, cov)
    ]


class TestValidateDataset:
    def test_small_valid_dataset(self):
        ds = validate_dataset(
            _records([1, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
            "z", "d", ["age"],
        )
        assert ds.n_units == 4
        assert ds.n_treated_instrument == 2
        assert ds.covariate_names == ("age",)
        assert np.array_equal(ds.instrument, [1, 1, 0, 0])

    def test_constant_instrument_rejected(self):
        with pytest.raises(ValidationError, match="constant instrument"):
            validate_dataset(
                _records([1, 1, 1, 1], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
                "z", "d", ["age"],
            )

    def test_nan_covariate_names_row_and_column(self):
        with pytest.raises(ValidationError) as err:
            validate_dataset(
                _records([1, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, "NaN"]),
                "z", "d", ["age"],
            )
        assert "row 3" in str(err.value)
        assert "age" in str(err.value)

    def test_int_too_large_for_a_float_is_an_issue(self):
        records = [{"z": 1, "d": 0, "a": 10**400}, {"z": 0, "d": 1, "a": 1}]
        with pytest.raises(ValidationError) as err:
            validate_dataset(records, "z", "d", ["a"])
        assert err.value.issues == ["covariate value out of float range in column a at row 0"]

    def test_all_violations_reported_not_just_first(self):
        records = _records([1, 2, 0, 0], [1, 0, 1, 0], [1.0, "", 3.0, "oops"])
        with pytest.raises(ValidationError) as err:
            validate_dataset(records, "z", "d", ["age"])
        issues = err.value.issues
        assert any("non-binary" in s for s in issues)
        assert any("missing covariate" in s for s in issues)
        assert any("non-numeric" in s for s in issues)

    def test_missing_column(self):
        with pytest.raises(ValidationError, match="missing column: flag"):
            validate_dataset(
                _records([1, 0], [0, 1], [1.0, 2.0]), "z", "d", ["flag"]
            )

    @pytest.mark.parametrize("token,expected", [
        ("1", 1), ("0", 0), (1, 1), (0, 0), (True, 1), (False, 0),
        ("true", 1), ("false", 0), (1.0, 1), (0.0, 0),
    ])
    def test_binary_coercion_accepts(self, token, expected):
        ds = validate_dataset(
            _records([token, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
            "z", "d", ["age"],
        )
        assert ds.instrument[0] == expected

    @pytest.mark.parametrize("token", [2, "yes", "T", 0.5, "2"])
    def test_binary_coercion_rejects(self, token):
        with pytest.raises(ValidationError, match="non-binary"):
            validate_dataset(
                _records([token, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
                "z", "d", ["age"],
            )

    def test_duplicate_covariate_names(self):
        records = [{"z": zi, "d": di, "a": 1.0} for zi, di in
                   zip([1, 0, 1, 0], [0, 1, 1, 0])]
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(
                covariates=np.ones((4, 2)),
                covariate_names=("a", "a"),
                instrument=np.array([1, 0, 1, 0]),
                exposure=np.array([0, 1, 1, 0]),
            )
        # and via records with repeated requested column
        ds = validate_dataset(records, "z", "d", ["a"])
        assert ds.covariate_names == ("a",)


class TestDatasetInvariants:
    def test_arrays_immutable(self):
        ds = validate_dataset(
            _records([1, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
            "z", "d", ["age"],
        )
        with pytest.raises(ValueError):
            ds.covariates[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.instrument[0] = 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(
                covariates=np.ones((4, 1)),
                covariate_names=("a",),
                instrument=np.array([1, 0, 1]),
                exposure=np.array([0, 1, 1, 0]),
            )


class TestConfigBounds:
    @pytest.mark.parametrize("field, value", [
        ("n_draws", 0),
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("bias_denominator", "median"),
        ("threads", 0),
        ("chunk_draws", 0),
        ("max_redraws", -1),
        ("enumeration_cap", 0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = TestConfig(n_draws=1, max_redraws=0, enumeration_cap=1)
        assert (cfg.max_redraws, cfg.enumeration_cap) == (0, 1)


class TestRoundTrip:
    def test_write_read_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(
            covariates=rng.standard_normal((20, 3)) * 1e3,
            covariate_names=("a", "b", "c"),
            instrument=(rng.random(20) < 0.5).astype(np.int8),
            exposure=(rng.random(20) < 0.5).astype(np.int8),
        )
        # regenerate until both vectors are non-constant
        path = tmp_path / "ds.csv"
        write_delimited(ds, path, instrument_col="z", exposure_col="d")
        back = load_dataset(path, "z", "d")
        assert back.equals(ds)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        k = int(rng.integers(1, 4))
        z = np.zeros(n, dtype=np.int8)
        z[rng.permutation(n)[: max(1, n // 2)]] = 1
        d = np.roll(z, 1)
        ds = Dataset(
            covariates=rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8),
            covariate_names=tuple(f"c{i}" for i in range(k)),
            instrument=z,
            exposure=d,
        )
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_delimited(ds, path)
        assert load_dataset(path, "instrument", "exposure").equals(ds)

    def test_alternate_delimiter(self, tmp_path):
        ds = validate_dataset(
            _records([1, 1, 0, 0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0]),
            "z", "d", ["age"],
        )
        path = tmp_path / "ds.tsv"
        write_delimited(ds, path, delimiter="\t")
        assert load_dataset(path, "instrument", "exposure", delimiter="\t").equals(ds)


class TestTotality:
    """Malformed input always yields a structured error, never a crash."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "z": st.one_of(st.none(), st.integers(-2, 3), st.text(max_size=3)),
                "d": st.one_of(st.none(), st.integers(-2, 3), st.text(max_size=3)),
                "age": st.one_of(st.none(), st.floats(allow_nan=True,
                                                      allow_infinity=True),
                                 st.text(max_size=5)),
            },
        ),
        max_size=12,
    ))
    def test_validate_never_crashes(self, records):
        try:
            ds = validate_dataset(records, "z", "d", ["age"])
        except ValidationError as err:
            assert err.issues
        else:
            assert ds.n_units == len(records)


class TestCategoricalExpansion:
    def test_expand_levels(self):
        records = [{"lvl": v} for v in ["0", "1", "2", "1"]]
        names = expand_categorical(records, "lvl")
        assert names == ["lvl=1", "lvl=2"]
        assert [r["lvl=1"] for r in records] == [0.0, 1.0, 0.0, 1.0]
        assert [r["lvl=2"] for r in records] == [0.0, 0.0, 1.0, 0.0]

    def test_ingestion_with_categoricals(self):
        records = [
            {"z": zi, "d": di, "age": a, "care": c}
            for zi, di, a, c in zip([1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 0, 1],
                                    [1.0, 2, 3, 4, 5, 6],
                                    ["0", "2", "1", "0", "2", "1"])
        ]
        ds = validate_dataset(records, "z", "d", ["age", "care"],
                              categorical_cols=["care"])
        assert ds.covariate_names == ("age", "care=1", "care=2")

    def test_single_level_rejected(self):
        records = [{"lvl": "a"}, {"lvl": "a"}]
        with pytest.raises(ValidationError):
            expand_categorical(records, "lvl")


def _expand_categorical_reference(records, column):
    """expand_categorical's loop: one record at a time, in place."""
    levels = sorted({str(r.get(column, "")) for r in records})
    if len(levels) < 2:
        raise ValidationError([f"categorical column {column} has fewer than 2 levels"])
    indicator_names = [f"{column}={lv}" for lv in levels[1:]]
    for r in records:
        value = str(r.get(column, ""))
        for lv, name in zip(levels[1:], indicator_names):
            r[name] = 1.0 if value == lv else 0.0
    return indicator_names


def _validate_dataset_reference(records, instrument_col, exposure_col,
                                covariate_cols, categorical_cols=()):
    """validate_dataset as a row loop over copied records, cell by cell."""
    records = [dict(r) for r in records]
    issues = []
    if not records:
        raise ValidationError(["no data rows"])
    covariate_cols = list(covariate_cols)
    if not covariate_cols and not categorical_cols:
        raise ValidationError(["no covariate columns specified"])
    present = set(records[0].keys())
    for col in [instrument_col, exposure_col, *covariate_cols, *categorical_cols]:
        if col not in present:
            issues.append(f"missing column: {col}")
    if issues:
        raise ValidationError(issues)
    for col in categorical_cols:
        new_names = _expand_categorical_reference(records, col)
        idx = covariate_cols.index(col) if col in covariate_cols else len(covariate_cols)
        if col in covariate_cols:
            covariate_cols.remove(col)
        covariate_cols[idx:idx] = new_names
    n = len(records)
    z = np.zeros(n, dtype=np.int8)
    d = np.zeros(n, dtype=np.int8)
    x = np.zeros((n, len(covariate_cols)), dtype=np.float64)
    for i, rec in enumerate(records):
        z[i] = _coerce_binary(rec.get(instrument_col), instrument_col, i, issues)
        d[i] = _coerce_binary(rec.get(exposure_col), exposure_col, i, issues)
        for j, col in enumerate(covariate_cols):
            x[i, j] = _coerce_numeric(rec.get(col), col, i, issues)
    if not issues:
        if z.min() == z.max():
            issues.append("constant instrument: needs at least one 0 and one 1")
        if d.min() == d.max():
            issues.append("constant exposure: needs at least one 0 and one 1")
    if issues:
        raise ValidationError(issues)
    return Dataset(covariates=x, covariate_names=tuple(covariate_cols),
                   instrument=z, exposure=d)


_GOOD_BINARY = st.sampled_from([
    "0", "1", "true", "false", "True", "FALSE", " 1", "0 ", "\t1\n",
    0, 1, True, False, 0.0, 1.0, -0.0, np.int64(1), np.uint8(0),
    np.float32(1.0), np.str_("0"),
])
_BAD_BINARY = st.sampled_from([
    None, "", " ", "2", "yes", "T", "1.0", "nan", 2, -1, 0.5, float("nan"),
    np.bool_(True), np.int64(3), b"1",
])
_GOOD_NUMERIC = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).map(lambda v: f"  {v} "),
    st.sampled_from([True, np.int16(-7), np.float64(2.5), "1e3", "-0", b"4.5"]),
)
_BAD_NUMERIC = st.sampled_from([
    None, "", "   ", "nan", "-inf", "inf", "1e999", "NaN", "abc", "1,5",
    float("nan"), float("inf"), np.float64("-inf"), b" ", 1j,
])
_COLUMNS = ("z", "d", "x0", "x1", "cat")


@st.composite
def _messy_records(draw):
    """Records that are mostly valid, with bad cells and missing keys mixed in."""
    n = draw(st.integers(1, 12))
    p_bad = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    p_missing = draw(st.sampled_from([0.0, 0.0, 0.05]))
    p_no_category = draw(st.sampled_from([0.0, 0.3]))

    def cell(good, bad):
        return draw(bad) if draw(st.floats(0, 1)) < p_bad else draw(good)

    records = []
    for _ in range(n):
        rec = {
            "z": cell(_GOOD_BINARY, _BAD_BINARY),
            "d": cell(_GOOD_BINARY, _BAD_BINARY),
            "x0": cell(_GOOD_NUMERIC, _BAD_NUMERIC),
            "x1": cell(_GOOD_NUMERIC, _BAD_NUMERIC),
            "cat": draw(st.sampled_from(["a", "b", "c", 1, 2.5, None, ""])),
        }
        for col in _COLUMNS:
            if draw(st.floats(0, 1)) < (p_no_category if col == "cat" else p_missing):
                del rec[col]
        records.append(rec)
    return records


class TestColumnarValidation:
    """validate_dataset against the row loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_messy_records(),
           st.sampled_from([["x0", "x1"], ["x0", "cat", "x1"], ["x1"], ["cat"], []]),
           st.sampled_from([(), ("cat",)]))
    def test_matches_row_loop(self, records, covariates, categorical):
        outcomes = []
        for validate in (_validate_dataset_reference, validate_dataset):
            try:
                outcomes.append(validate(records, "z", "d", covariates, categorical))
            except ValidationError as err:
                outcomes.append(err.issues)
        expected, got = outcomes
        if isinstance(expected, list):
            assert got == expected
        else:
            assert isinstance(got, Dataset)
            assert got.covariate_names == expected.covariate_names
            assert got.covariates.tobytes() == expected.covariates.tobytes()
            assert got.instrument.tobytes() == expected.instrument.tobytes()
            assert got.exposure.tobytes() == expected.exposure.tobytes()

    def test_issues_are_in_row_order(self):
        records = _records(["1", "x", "0", "0"], ["y", "0", "1", "0"],
                           ["nan", "1.5", "", "2"])
        with pytest.raises(ValidationError) as err:
            validate_dataset(records, "z", "d", ["age"])
        assert err.value.issues == [
            "non-binary value 'y' in column d at row 0",
            "non-finite covariate value in column age at row 0",
            "non-binary value 'x' in column z at row 1",
            "missing covariate value in column age at row 2",
        ]

    def test_records_not_mutated(self):
        records = [
            {"z": zi, "d": di, "age": a, "care": c}
            for zi, di, a, c in zip(["1", "1", "0", "0"], ["1", "0", "1", "0"],
                                    ["1.0", "2", "3", "4"], ["x", "y", "x", "z"])
        ]
        before = [dict(r) for r in records]
        ds = validate_dataset(records, "z", "d", ["age", "care"],
                              categorical_cols=["care"])
        assert ds.covariate_names == ("age", "care=y", "care=z")
        assert records == before
        assert [list(r) for r in records] == [list(r) for r in before]
