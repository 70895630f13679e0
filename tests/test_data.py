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
from ivrand.data import expand_categorical


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
