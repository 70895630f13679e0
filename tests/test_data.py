"""Dataset construction, validation, and ingestion round trips."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrand import (
    Dataset,
    TestConfig,
    ValidationError,
    data,
    load_dataset,
    read_delimited,
    validate_dataset,
    write_delimited,
)
from ivrand.data import _coerce_binary, _coerce_numeric


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
        ("enumeration_cap", 0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestConfig(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = TestConfig(n_draws=1, enumeration_cap=1)
        assert (cfg.n_draws, cfg.enumeration_cap) == (1, 1)


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
        records = [{"z": zi, "d": di, "lvl": v}
                   for zi, di, v in zip([1, 0, 1, 0], [0, 1, 1, 0], ["0", "1", "2", "1"])]
        ds = validate_dataset(records, "z", "d", [], categorical_cols=["lvl"])
        assert ds.covariate_names == ("lvl=1", "lvl=2")
        assert ds.covariates[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert ds.covariates[:, 1].tolist() == [0.0, 0.0, 1.0, 0.0]

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
        records = [{"z": 1, "d": 0, "lvl": "a"}, {"z": 0, "d": 1, "lvl": "a"}]
        with pytest.raises(ValidationError, match="fewer than 2 levels"):
            validate_dataset(records, "z", "d", [], categorical_cols=["lvl"])

    @pytest.mark.parametrize("role", ["instrument", "exposure"])
    def test_indicator_named_like_instrument_or_exposure_rejected(self, tmp_path, role):
        # the file's own care=y column must be the one tested, not care's
        # indicator of level y
        header = {"instrument": ["care=y", "d"], "exposure": ["z", "care=y"]}[role]
        rows = [[z, d, a, c] for z, d, a, c in
                zip([1, 1, 0, 0, 1, 0], [0, 1, 0, 1, 1, 0], [50, 60, 70, 40, 30, 20], "nnnyyn")]
        records = [dict(zip([*header, "age", "care"], row)) for row in rows]
        path = tmp_path / "clash.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[*header, "age", "care"], *rows])
        expected = [f"categorical column care gives an indicator named like the "
                    f"{role} column care=y"]
        for ingest in (validate_dataset, load_dataset):
            with pytest.raises(ValidationError) as err:
                ingest(records if ingest is validate_dataset else path, *header, ["age"],
                       categorical_cols=["care"])
            assert err.value.issues == expected

    def test_bad_cell_of_a_repeated_covariate_reported_once(self):
        records = _records([1, 0, 1, 0], [0, 1, 1, 0], ["1.0", "abc", "3", "4"])
        with pytest.raises(ValidationError) as err:
            validate_dataset(records, "z", "d", ["age", "age"])
        assert err.value.issues == ["non-numeric covariate value 'abc' in column age at row 1"]

    def test_dataset_parses_no_cell_again(self):
        records = [{"z": zi, "d": di, "age": a, "care": c}
                   for zi, di, a, c in zip([1, 0, 1, 0], [0, 1, 1, 0], [1.0, 2, 3, 4], "xyzy")]
        table = data._Table(records[0].keys(), "z", "d", ["age", "care"], ["care"])
        table.add(lambda col, default: [r.get(col, default) for r in records], len(records))
        with mock.patch.object(data, "_coerce_column", wraps=data._coerce_column) as coerce:
            ds = table.dataset()
        assert coerce.call_count == 0
        assert ds.covariate_names == ("age", "care=y", "care=z")
        assert ds.covariates.tolist() == [[1, 0, 0], [2, 1, 0], [3, 0, 1], [4, 1, 0]]


def _expand_categorical_reference(records, column):
    """Categorical expansion as a loop: one record at a time, in place."""
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


_CSV_GOOD = {
    "z": ["0", "1", "true", "FALSE", " 1", "0 "],
    "d": ["0", "1", "True", "false", "1\t"],
    "x": ["1.5", "-0", "1e3", "  4 ", "0.1", "-2.25e-3", "7"],
    "label": ["a", "b", "c", "a,b", "b;c", "b\tc"],
}
_CSV_BAD = {
    "z": ["2", "yes", "", "1.0", "nan"],
    "d": ["-1", "", "T"],
    "x": ["", " ", "nan", "inf", "-inf", "1e999", "abc", "1,5", "2;5"],
    "label": [""],
}
_CSV_KIND = {"z": "z", "d": "d", "x0": "x", "x1": "x", "cat": "label", "site": "label"}


@st.composite
def _messy_csv(draw):
    """CSV text that is mostly valid, with ragged rows, blank lines, a BOM,
    quoted delimiters, bad cells, and missing or repeated header columns."""
    header = list(draw(st.permutations(list(_CSV_KIND))))
    if draw(st.integers(0, 4)) == 0:
        del header[draw(st.integers(0, len(header) - 1))]
    if draw(st.integers(0, 4)) == 0:
        header.append(draw(st.sampled_from(header)))
    p_bad = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    p_ragged = draw(st.sampled_from([0.0, 0.0, 0.2]))

    def cell(kind):
        pool = _CSV_BAD if draw(st.floats(0, 1)) < p_bad else _CSV_GOOD
        return draw(st.sampled_from(pool[kind]))

    rows = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])   # a blank line
            continue
        width = len(header)
        if draw(st.floats(0, 1)) < p_ragged:
            width = max(1, width + draw(st.sampled_from([-2, -1, 1, 2])))
        kinds = [_CSV_KIND[c] for c in header] + ["x"] * 2
        rows.append([cell(kind) for kind in kinds[:width]])
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter,
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + buffer.getvalue(), delimiter, len(header)


def _load_reference(path, covariates, categorical, delimiter, block_column):
    """load_dataset as validate_dataset over the records read_delimited returns."""
    records = read_delimited(path, delimiter)
    if not records:
        raise ValidationError([f"{path}: no data rows"])
    if covariates is None:
        skip = {"z", "d", block_column, None}
        covariates = [c for c in records[0] if c not in skip]
    dataset = validate_dataset(records, "z", "d", covariates, categorical)
    if block_column is None or block_column not in records[0]:
        return dataset, None
    return dataset, [r[block_column] for r in records]


def _load_streaming(path, covariates, categorical, delimiter, block_column):
    loaded = load_dataset(path, "z", "d", covariates, categorical, delimiter,
                          block_column=block_column)
    return loaded if block_column is not None else (loaded, None)


class TestStreamingLoad:
    """load_dataset, read in blocks, against the records read whole."""

    @settings(max_examples=300, deadline=None)
    @given(_messy_csv(),
           st.sampled_from([None, ["x0", "x1"], ["x0", "cat", "x1"], ["cat"], [],
                            ["x1", "nope"]]),
           st.sampled_from([(), ("cat",), ("site", "cat")]),
           st.sampled_from([None, "site", "nope"]),
           st.sampled_from([1, 2, 3, None]))
    def test_matches_whole_file_read(self, tmp_path_factory, table, covariates,
                                     categorical, block_column, block_rows):
        text, delimiter, width = table
        path = tmp_path_factory.mktemp("stream") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        budget = data.READ_BLOCK_CELLS if block_rows is None else block_rows * width
        outcomes = []
        for load in (_load_reference, _load_streaming):
            try:
                with mock.patch.object(data, "READ_BLOCK_CELLS", budget):
                    outcomes.append(load(path, covariates, categorical, delimiter,
                                         block_column))
            except ValidationError as err:
                outcomes.append(err.issues)
        expected, got = outcomes
        if isinstance(expected, list):
            assert got == expected
        else:
            (want, want_labels), (ds, labels) = expected, got
            assert ds.covariate_names == want.covariate_names
            assert ds.covariates.tobytes() == want.covariates.tobytes()
            assert ds.instrument.tobytes() == want.instrument.tobytes()
            assert ds.exposure.tobytes() == want.exposure.tobytes()
            assert labels == want_labels

    def test_labels_are_one_object_per_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("z,d,x,site\n" + "".join(
            f"{i % 2},{i // 2 % 2},{i},s{i % 3}\n" for i in range(40)))
        with mock.patch.object(data, "READ_BLOCK_CELLS", 4 * 5):
            _, labels = load_dataset(path, "z", "d", block_column="site")
        assert labels == [f"s{i % 3}" for i in range(40)]
        assert len({id(label) for label in labels}) == 3

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        """Ingestion holds one block of rows beyond what building the Dataset
        from its finished arrays takes (the output and the Dataset's own
        checks), at any number of rows."""
        monkeypatch.setattr(data, "READ_BLOCK_CELLS", 5 * 1_000, raising=False)
        rng = np.random.default_rng(0)

        def traced_peak(call):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = call()
                return result, tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        excess = {}
        for n in (10_000, 40_000):
            path = tmp_path / f"{n}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["z", "d", "x0", "x1", "x2"])
                x = rng.standard_normal((n, 3)).tolist()
                writer.writerows([i % 2, i // 2 % 2, *map(repr, row)]
                                 for i, row in enumerate(x))
            ds, read_peak = traced_peak(lambda: load_dataset(path, "z", "d"))
            _, build_peak = traced_peak(lambda: Dataset(
                covariates=ds.covariates.copy(), covariate_names=ds.covariate_names,
                instrument=ds.instrument.copy(), exposure=ds.exposure.copy()))
            excess[n] = read_peak - build_peak
        # reading the whole file first would add about 400 bytes a row here,
        # 12 MB over the 30,000 rows between the two files
        assert excess[40_000] <= excess[10_000] + 64 * 1024
