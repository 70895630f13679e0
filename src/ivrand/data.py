"""Dataset model, validation, and delimited-text ingestion.

The unit of analysis is a table of N units with a binary instrument
column, a binary exposure column, and K numeric covariate columns.
Outcomes are deliberately not part of the model: the diagnostics in this
package never look at them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

_TRUE_TOKENS = {"1", "true", "True", "TRUE"}
_FALSE_TOKENS = {"0", "false", "False", "FALSE"}
_BINARY_TOKENS = {**dict.fromkeys(_TRUE_TOKENS, 1), **dict.fromkeys(_FALSE_TOKENS, 0)}


@dataclass(frozen=True)
class Dataset:
    """Immutable covariate matrix plus binary instrument and exposure.

    Invariants (enforced at construction): instrument and exposure are
    0/1 vectors that are not constant, covariates are finite, all
    lengths agree, and covariate names are distinct.
    """

    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    instrument: np.ndarray
    exposure: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.covariates, dtype=np.float64))
        z = np.asarray(self.instrument, dtype=np.int8)
        d = np.asarray(self.exposure, dtype=np.int8)
        names = tuple(str(c) for c in self.covariate_names)
        if x.ndim != 2:
            raise ValidationError(["covariates must be a 2-d matrix"])
        issues = []
        n = x.shape[0]
        if n == 0:
            issues.append("dataset has no rows")
        if x.shape[1] == 0:
            issues.append("dataset has no covariate columns")
        if x.shape[1] != len(names):
            issues.append(
                f"covariate_names has {len(names)} entries for "
                f"{x.shape[1]} covariate columns"
            )
        if len(set(names)) != len(names):
            dupes = sorted({c for c in names if names.count(c) > 1})
            issues.append(f"duplicate covariate names: {', '.join(dupes)}")
        if z.shape != (n,) or d.shape != (n,):
            issues.append("instrument/exposure length does not match covariate rows")
        else:
            for label, v in (("instrument", z), ("exposure", d)):
                if not np.isin(v, (0, 1)).all():
                    issues.append(f"{label} contains non-binary values")
                elif v.min() == v.max():
                    issues.append(f"constant {label}: needs at least one 0 and one 1")
        if not np.isfinite(x).all():
            bad = np.argwhere(~np.isfinite(x))
            for i, j in bad[:10]:
                issues.append(
                    f"non-finite covariate value at row {i} column {names[j] if j < len(names) else j}"
                )
            if len(bad) > 10:
                issues.append(f"... and {len(bad) - 10} more non-finite values")
        if issues:
            raise ValidationError(issues)
        x.setflags(write=False)
        z.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "instrument", z)
        object.__setattr__(self, "exposure", d)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_treated_instrument(self) -> int:
        return int(self.instrument.sum())

    @property
    def n_treated_exposure(self) -> int:
        return int(self.exposure.sum())

    def target_vector(self, target: str) -> np.ndarray:
        if target == "instrument":
            return self.instrument
        if target == "exposure":
            return self.exposure
        raise ValueError(f"target must be 'instrument' or 'exposure', got {target!r}")

    def equals(self, other: "Dataset") -> bool:
        return (
            self.covariate_names == other.covariate_names
            and np.array_equal(self.covariates, other.covariates)
            and np.array_equal(self.instrument, other.instrument)
            and np.array_equal(self.exposure, other.exposure)
        )


@dataclass(frozen=True)
class AssignmentVector:
    """A binary assignment over the N units."""

    values: np.ndarray
    n_treated: int = field(default=-1)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int8)
        if v.ndim != 1 or not np.isin(v, (0, 1)).all():
            raise ValueError("assignment values must be a 1-d 0/1 vector")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        total = int(v.sum())
        if self.n_treated == -1:
            object.__setattr__(self, "n_treated", total)
        elif self.n_treated != total:
            raise ValueError(
                f"n_treated={self.n_treated} but values sum to {total}"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TestConfig:
    """Knobs for a randomization test run.

    ``bias_denominator`` controls how the bias statistic treats the
    exposure prevalence difference across permuted draws:
    ``fixed_observed`` (default) holds it at the observed value,
    ``per_draw`` recomputes it per draw (draws with a zero denominator
    are recorded as undefined and excluded, with the count reported).
    ``chunk_draws`` caps the draws evaluated per chunk; below the cap, a
    chunk's size comes from a byte budget (``randtest.CHUNK_WORD_BYTES``).
    """

    n_draws: int = 10_000
    alpha: float = 0.05
    seed: int = 0
    bias_denominator: str = "fixed_observed"
    enumeration_cap: int = 1_000_000
    max_redraws: int = 1_000
    chunk_draws: int = 1_024
    threads: int = 1

    __test__ = False   # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be strictly between 0 and 1")
        if self.bias_denominator not in ("fixed_observed", "per_draw"):
            raise ValueError("bias_denominator must be fixed_observed or per_draw")
        if self.threads < 1 or self.chunk_draws < 1:
            raise ValueError("threads and chunk_draws must be >= 1")
        if self.max_redraws < 0:
            raise ValueError("max_redraws must be >= 0")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be >= 1")


def _coerce_binary(value, column: str, row: int, issues: list) -> int:
    """Strict 0/1 coercion: accepts 0/1, '0'/'1', true/false only."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, np.integer)) and value in (0, 1):
        return int(value)
    if isinstance(value, (float, np.floating)) and value in (0.0, 1.0):
        return int(value)
    if isinstance(value, str):
        token = value.strip()
        if token in _TRUE_TOKENS:
            return 1
        if token in _FALSE_TOKENS:
            return 0
    issues.append(f"non-binary value {value!r} in column {column} at row {row}")
    return 0


def _coerce_numeric(value, column: str, row: int, issues: list) -> float:
    if value is None or (isinstance(value, str) and value.strip() == ""):
        issues.append(f"missing covariate value in column {column} at row {row}")
        return np.nan
    try:
        out = float(value)
    except OverflowError:
        issues.append(f"covariate value out of float range in column {column} at row {row}")
        return np.nan
    except (TypeError, ValueError):
        issues.append(f"non-numeric covariate value {value!r} in column {column} at row {row}")
        return np.nan
    if not np.isfinite(out):
        issues.append(f"non-finite covariate value in column {column} at row {row}")
    return out


def _indicator_columns(values, column: str) -> tuple[list[str], list[np.ndarray]]:
    """Names and 0/1 float columns of a categorical column's indicators.

    One indicator per non-reference level; levels are the values' ``str``
    and the reference level is the lexicographically smallest.
    """
    labels = list(map(str, values))
    levels = sorted(set(labels))
    if len(levels) < 2:
        raise ValidationError([f"categorical column {column} has fewer than 2 levels"])
    code = {lv: i for i, lv in enumerate(levels)}
    codes = np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))
    names = [f"{column}={lv}" for lv in levels[1:]]
    return names, [(codes == i).astype(np.float64) for i in range(1, len(levels))]


def expand_categorical(records: Sequence[dict], column: str) -> list[str]:
    """Expand a categorical column into indicator columns in place.

    One indicator per non-reference level; the reference level is the
    lexicographically smallest. Returns the new column names, each
    ``column=level``.
    """
    names, indicators = _indicator_columns([r.get(column, "") for r in records], column)
    for name, indicator in zip(names, indicators):
        for r, value in zip(records, indicator.tolist()):
            r[name] = value
    return names


def _binary_cells(values):
    return map(_BINARY_TOKENS.__getitem__, map(str.strip, values))


def _numeric_cells(values):
    return map(float, values)


def _coerce_column(values, column: str, parse, coerce, dtype, issues: list) -> np.ndarray:
    """One column as a ``dtype`` array, parsed by ``parse`` in one pass.

    A column that ``parse`` rejects is coerced cell by cell by ``coerce``,
    which makes every issue's text, and so are the non-finite cells of a
    parsed one; each issue is added to ``issues`` as ``(row, text)``.
    """
    try:
        out = np.fromiter(parse(values), dtype, len(values))
        rows = np.flatnonzero(~np.isfinite(out)).tolist()
    except (ValueError, TypeError, KeyError, OverflowError):
        out, rows = np.empty(len(values), dtype=dtype), range(len(values))
    for i in rows:
        found: list[str] = []
        out[i] = coerce(values[i], column, i, found)
        issues += [(i, text) for text in found]
    return out


def validate_dataset(
    records: Sequence[dict],
    instrument_col: str,
    exposure_col: str,
    covariate_cols: Sequence[str],
    categorical_cols: Sequence[str] = (),
) -> Dataset:
    """Build a validated Dataset from tabular records.

    Collects every violation before rejecting, so a bad file is
    reported in full, in row order, rather than one error at a time.
    Columns listed in ``categorical_cols`` are expanded to indicators
    first; the records are not modified.
    """
    records = list(records)
    if not records:
        raise ValidationError(["no data rows"])

    covariate_cols = list(covariate_cols)
    if not covariate_cols and not categorical_cols:
        raise ValidationError(["no covariate columns specified"])
    present = records[0].keys()
    issues = [f"missing column: {col}"
              for col in [instrument_col, exposure_col, *covariate_cols, *categorical_cols]
              if col not in present]
    if issues:
        raise ValidationError(issues)

    indicators: dict[str, np.ndarray] = {}   # expanded columns, which shadow records

    def column(col: str, default=None):
        if col in indicators:
            return indicators[col]
        return [r.get(col, default) for r in records]

    for col in categorical_cols:
        new_names, new_columns = _indicator_columns(column(col, ""), col)
        indicators.update(zip(new_names, new_columns))
        idx = covariate_cols.index(col) if col in covariate_cols else len(covariate_cols)
        if col in covariate_cols:
            covariate_cols.remove(col)
        covariate_cols[idx:idx] = new_names

    # issues are gathered column by column as (row, text); a stable sort by
    # row restores the row-major order: instrument, exposure, covariates
    cells: list[tuple[int, str]] = []
    z, d = (_coerce_column(column(col), col, _binary_cells, _coerce_binary, np.int8, cells)
            for col in (instrument_col, exposure_col))
    x = np.empty((len(records), len(covariate_cols)), dtype=np.float64)
    for j, col in enumerate(covariate_cols):
        x[:, j] = _coerce_column(column(col), col, _numeric_cells, _coerce_numeric,
                                 np.float64, cells)
    issues = [text for _, text in sorted(cells, key=lambda cell: cell[0])]

    if not issues:
        if z.min() == z.max():
            issues.append("constant instrument: needs at least one 0 and one 1")
        if d.min() == d.max():
            issues.append("constant exposure: needs at least one 0 and one 1")
    if issues:
        raise ValidationError(issues)
    return Dataset(
        covariates=x,
        covariate_names=tuple(covariate_cols),
        instrument=z,
        exposure=d,
    )


def read_delimited(path, delimiter: str = ",") -> list[dict]:
    """Read a delimited text file with a header row into records.

    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    dropped so that it does not become part of the first column's name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValidationError([f"{path}: empty file (no header row)"])
        return list(reader)


def load_dataset(
    path,
    instrument_col: str,
    exposure_col: str,
    covariate_cols: Sequence[str] | None = None,
    categorical_cols: Sequence[str] = (),
    delimiter: str = ",",
) -> Dataset:
    """Read and validate a delimited file in one step.

    When ``covariate_cols`` is None, every column other than the
    instrument and exposure is used as a covariate.
    """
    records = read_delimited(path, delimiter=delimiter)
    if covariate_cols is None:
        if not records:
            raise ValidationError([f"{path}: no data rows"])
        skip = {instrument_col, exposure_col}
        covariate_cols = [c for c in records[0].keys() if c not in skip]
    return validate_dataset(
        records, instrument_col, exposure_col, covariate_cols, categorical_cols
    )


def write_delimited(
    dataset: Dataset,
    path,
    instrument_col: str = "instrument",
    exposure_col: str = "exposure",
    delimiter: str = ",",
) -> None:
    """Write a dataset back out so that re-ingestion round-trips exactly.

    Covariates are written with ``repr`` so float parsing recovers the
    identical bit pattern.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow([instrument_col, exposure_col, *dataset.covariate_names])
        for i in range(dataset.n_units):
            writer.writerow(
                [int(dataset.instrument[i]), int(dataset.exposure[i])]
                + [repr(float(v)) for v in dataset.covariates[i]]
            )
