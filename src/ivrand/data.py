"""Dataset model, validation, and delimited-text ingestion.

The unit of analysis is a table of N units with a binary instrument
column, a binary exposure column, and K numeric covariate columns.
Outcomes are deliberately not part of the model: the diagnostics in this
package never look at them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import ValidationError

_TRUE_TOKENS = {"1", "true", "True", "TRUE"}
_FALSE_TOKENS = {"0", "false", "False", "FALSE"}
_BINARY_TOKENS = {**dict.fromkeys(_TRUE_TOKENS, 1), **dict.fromkeys(_FALSE_TOKENS, 0)}
BIAS_DENOMINATORS = ("fixed_observed", "per_draw")
# cells of a delimited file held at once while it is read: one block of
# READ_BLOCK_CELLS // width rows, about 5 MB of str objects and row lists
# for a file of floats written with repr
READ_BLOCK_CELLS = 1 << 16


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
    """The settings of a randomization test run.

    ``bias_denominator`` controls how the bias statistic treats the
    exposure prevalence difference across permuted draws:
    ``fixed_observed`` (default) holds it at the observed value,
    ``per_draw`` recomputes it per draw (draws with a zero denominator
    are recorded as undefined and excluded, with the count reported).
    ``enumeration_cap`` bounds C(N, N_T) for exact tests.  A chunk's
    size is not a setting: it comes from a byte budget
    (``randtest.CHUNK_WORD_BYTES``, at most ``randtest.CHUNK_MAX_ROWS``
    rows), and the Bernoulli redraw limit is ``mechanisms.MAX_REDRAWS``.
    """

    n_draws: int = 10_000
    alpha: float = 0.05
    seed: int = 0
    bias_denominator: str = "fixed_observed"
    enumeration_cap: int = 1_000_000
    threads: int = 1

    __test__ = False   # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be strictly between 0 and 1")
        if self.bias_denominator not in BIAS_DENOMINATORS:
            raise ValueError("bias_denominator must be " + " or ".join(BIAS_DENOMINATORS))
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
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


def _binary_cells(values):
    return map(_BINARY_TOKENS.__getitem__, map(str.strip, values))


def _numeric_cells(values):
    return map(float, values)


def _coerce_column(values, column: str, parse, coerce, dtype, issues: list,
                   start: int = 0) -> np.ndarray:
    """One column as a ``dtype`` array, parsed by ``parse`` in one pass.

    A column that ``parse`` rejects is coerced cell by cell by ``coerce``,
    which makes every issue's text, and so are the non-finite cells of a
    parsed one; each issue is added to ``issues`` as ``(row, text)``, where
    ``values[0]`` is row ``start``.
    """
    try:
        out = np.fromiter(parse(values), dtype, len(values))
        rows = np.flatnonzero(~np.isfinite(out)).tolist()
    except (ValueError, TypeError, KeyError, OverflowError):
        out, rows = np.empty(len(values), dtype=dtype), range(len(values))
    for i in rows:
        found: list[str] = []
        out[i] = coerce(values[i], column, start + i, found)
        issues += [(start + i, text) for text in found]
    return out


_BINARY = (_binary_cells, _coerce_binary, np.int8)
_NUMERIC = (_numeric_cells, _coerce_numeric, np.float64)


class _Table:
    """The columns of a table that arrives in row blocks, parsed as they come.

    The shared core of ``validate_dataset`` (its records are one block) and
    ``load_dataset`` (a delimited file read in blocks of
    ``READ_BLOCK_CELLS`` cells).  ``add`` parses one block; what outlives
    it is the parsed instrument, exposure and covariates, the issue texts,
    and the cells of the categorical and ``keep`` columns.  ``dataset``
    then expands the categorical columns and builds the Dataset, or raises
    every issue in row order.
    """

    def __init__(self, present, instrument_col: str, exposure_col: str,
                 covariate_cols: Sequence[str], categorical_cols: Sequence[str],
                 keep: Sequence[str] = ()):
        covariate_cols = list(covariate_cols)
        if not covariate_cols and not categorical_cols:
            raise ValidationError(["no covariate columns specified"])
        issues = [f"missing column: {col}"
                  for col in [instrument_col, exposure_col, *covariate_cols,
                              *categorical_cols]
                  if col not in present]
        if issues:
            raise ValidationError(issues)
        self.instrument_col, self.exposure_col = instrument_col, exposure_col
        self.covariate_cols = covariate_cols
        self.categorical_cols = list(categorical_cols)
        # the covariates not named as categorical are parsed as they arrive,
        # into one row-major matrix that grows by each block
        self.numeric = list(dict.fromkeys(c for c in covariate_cols
                                          if c not in self.categorical_cols))
        self.z = np.empty(0, dtype=np.int8)
        self.d = np.empty(0, dtype=np.int8)
        self.x = np.empty((0, len(self.numeric)), dtype=np.float64)
        self.issues: dict[tuple, list] = {
            key: [] for key in [(instrument_col, _BINARY), (exposure_col, _BINARY),
                                *((col, _NUMERIC) for col in self.numeric)]}
        self.kept: dict[str, list] = {
            col: [] for col in dict.fromkeys([*self.categorical_cols, *keep])}
        self.n_rows = 0

    def add(self, cells, n_rows: int) -> None:
        """Parse one block of ``n_rows`` rows; ``cells(col, default)`` gives
        the block's cells of ``col``, ``default`` where a row has none."""
        start, self.n_rows = self.n_rows, self.n_rows + n_rows
        # resize grows each array in place, so the rows parsed so far are
        # never held twice
        for a in (self.z, self.d, self.x):
            a.resize((self.n_rows, *a.shape[1:]), refcheck=False)
        for out, col in ((self.z, self.instrument_col), (self.d, self.exposure_col)):
            out[start:] = _coerce_column(cells(col, None), col, *_BINARY,
                                         self.issues[col, _BINARY], start)
        for j, col in enumerate(self.numeric):
            self.x[start:, j] = _coerce_column(cells(col, None), col, *_NUMERIC,
                                               self.issues[col, _NUMERIC], start)
        for col, values in self.kept.items():
            values += cells(col, "")

    def dataset(self) -> Dataset:
        """The Dataset of every row added, or a ValidationError naming every
        issue found, in row order."""
        indicators: dict[str, np.ndarray] = {}   # expanded columns, which shadow the rest

        def kept(col: str):
            return indicators[col] if col in indicators else self.kept[col]

        covariate_cols = list(self.covariate_cols)
        for col in self.categorical_cols:
            new_names, new_columns = _indicator_columns(kept(col), col)
            indicators.update(zip(new_names, new_columns))
            idx = covariate_cols.index(col) if col in covariate_cols else len(covariate_cols)
            if col in covariate_cols:
                covariate_cols.remove(col)
            covariate_cols[idx:idx] = new_names

        parsed = {(self.instrument_col, _BINARY): self.z,
                  (self.exposure_col, _BINARY): self.d,
                  **{(col, _NUMERIC): self.x[:, j] for j, col in enumerate(self.numeric)}}

        def column(col: str, kind) -> tuple[np.ndarray, list]:
            if col not in indicators and (col, kind) in parsed:
                return parsed[col, kind], self.issues[col, kind]
            found: list[tuple[int, str]] = []
            return _coerce_column(kept(col), col, *kind, found), found

        (z, z_issues), (d, d_issues) = (column(col, _BINARY)
                                        for col in (self.instrument_col, self.exposure_col))
        covariates = [column(col, _NUMERIC) for col in covariate_cols]
        if covariate_cols == self.numeric:
            x = self.x
        else:
            x = np.empty((self.n_rows, len(covariate_cols)), dtype=np.float64)
            for j, (values, _) in enumerate(covariates):
                x[:, j] = values
        # issues were gathered column by column as (row, text); a stable sort
        # by row restores the row-major order: instrument, exposure, covariates
        cells_found = [*z_issues, *d_issues, *(i for _, found in covariates for i in found)]
        issues = [text for _, text in sorted(cells_found, key=lambda cell: cell[0])]
        if issues:
            raise ValidationError(issues)
        return Dataset(
            covariates=x,
            covariate_names=tuple(covariate_cols),
            instrument=z,
            exposure=d,
        )


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
    table = _Table(records[0].keys(), instrument_col, exposure_col, covariate_cols,
                   categorical_cols)
    table.add(lambda col, default: [r.get(col, default) for r in records], len(records))
    return table.dataset()


class _Records:
    """Iterates a csv reader (or ``csv.DictReader``) and keeps ``ended``, the
    line on which the last record it gave ended.

    The csv module reports the line where it gave up on a malformed record,
    which for an unclosed quote is many lines on; the record began on the
    line after ``ended`` (or after blank lines there, which a
    ``csv.DictReader`` skips inside its read of the next record).
    """

    def __init__(self, reader):
        self.reader = reader
        self.ended = 0

    def __iter__(self):
        for record in self.reader:
            self.ended = self.reader.line_num
            yield record

    def unreadable(self, path, exc: csv.Error) -> ValidationError:
        return ValidationError([f"{path}: unreadable at line {self.ended + 1}: {exc}"])


def read_delimited(path, delimiter: str = ",") -> list[dict]:
    """Read a delimited text file with a header row into records.

    A leading UTF-8 byte-order mark, as spreadsheet programs write, is
    dropped so that it does not become part of the first column's name.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        records = _Records(reader)
        try:
            if reader.fieldnames is None:
                raise ValidationError([f"{path}: empty file (no header row)"])
            records.ended = reader.line_num
            return list(records)
        except csv.Error as exc:
            raise records.unreadable(path, exc) from None


def _block_cells(rows: list[list[str]], header: list[str], labels: dict):
    """``cells(col, default)`` of one block of csv rows, as ``csv.DictReader``
    gives them: the cell at the column's last header position, None past a
    short row's end (every column asked for is in the header, so ``default``
    is never needed).  The cells of a column in ``labels`` are canonicalised
    through the dict ``labels[col]``, so that no block's strings outlive it."""
    index = {col: j for j, col in enumerate(header)}
    columns = list(zip(*rows)) if min(map(len, rows)) >= len(header) else None

    def cells(col, default):
        j = index[col]
        values = (columns[j] if columns is not None
                  else [r[j] if j < len(r) else None for r in rows])
        if col in labels:
            return list(map(labels[col].setdefault, values, values))
        return values

    return cells


def load_dataset(
    path,
    instrument_col: str,
    exposure_col: str,
    covariate_cols: Sequence[str] | None = None,
    categorical_cols: Sequence[str] = (),
    delimiter: str = ",",
    *,
    block_column: str | None = None,
):
    """Read and validate a delimited file in one streaming pass.

    The file is read in blocks of ``READ_BLOCK_CELLS`` cells, that is
    ``READ_BLOCK_CELLS // width`` rows of the header's width.  Only the
    parsed arrays, the issue texts and the labels of the categorical
    columns outlive a block, so ingestion holds one block beside its
    output.  The result is that of ``validate_dataset`` on
    ``read_delimited(path, delimiter)``, except that a missing column is
    reported once the first data row is read, without reading the rest of
    the file (and so without finding a malformed record further on).

    When ``covariate_cols`` is None, every header column other than the
    instrument, the exposure and ``block_column`` is a covariate.  With a
    ``block_column``, returns ``(dataset, labels)``: the column's cells in
    row order, one object per distinct label, or None when the file has
    no such column.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = _Records(csv.reader(fh, delimiter=delimiter))
        reader = iter(records)
        rows = filter(None, reader)   # skips blank lines, as csv.DictReader does
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError([f"{path}: empty file (no header row)"])
            block_rows = max(1, READ_BLOCK_CELLS // max(1, len(header)))
            block = list(islice(rows, block_rows))
            if not block:
                raise ValidationError([f"{path}: no data rows"])
            present = dict.fromkeys(header)
            if covariate_cols is None:
                skip = {instrument_col, exposure_col, block_column}
                covariate_cols = [c for c in present if c not in skip]
            keep = [block_column] if block_column in present else []
            table = _Table(present, instrument_col, exposure_col, covariate_cols,
                           categorical_cols, keep)
            labels = {col: {} for col in table.kept}
            while block:
                table.add(_block_cells(block, header, labels), len(block))
                del block   # before the next block is read
                block = list(islice(rows, block_rows))
        except csv.Error as exc:
            raise records.unreadable(path, exc) from None
    dataset = table.dataset()
    if block_column is None:
        return dataset
    return dataset, table.kept.get(block_column)


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
