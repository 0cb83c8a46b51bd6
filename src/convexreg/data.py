"""Dataset ingestion, synthetic generation, and target-bound estimation."""

from __future__ import annotations

import contextlib
import csv
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .loss import Dataset, _response
from .transforms import Transform, _count


class CsvParseError(ValueError):
    """Structurally malformed CSV (ragged rows, empty file, ...)."""


class MissingTargetColumnError(ValueError):
    """The requested target column does not exist."""


# A longer cell is quoted by its start and its length, to keep the message short.
_QUOTED_CELL_CHARS = 64


class NonNumericCellError(ValueError):
    """A cell that should hold a finite number does not; the message names the file when given."""

    def __init__(
        self, line: int, column: int, cell: str, reason: str = "is not a number", *, path: str | Path | None = None
    ):
        self.line = int(line)
        self.column = int(column)
        quoted = repr(cell)
        if len(cell) > _QUOTED_CELL_CHARS:
            quoted = f"{cell[:_QUOTED_CELL_CHARS]!r}... ({len(cell)} characters)"
        prefix = "" if path is None else f"{path}: "
        super().__init__(f"{prefix}line {line}, column {column}: cell {quoted} {reason}")


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a CSV file into a :class:`Dataset`.

    ``target_column`` is a header name or 0-based index; by default the
    last column holds the targets.  When ``add_bias`` is set a constant
    1.0 column is appended to the features; when ``standardize`` is set
    every non-bias feature column is shifted/scaled to mean 0, variance 1.
    """

    path: str | Path
    target_column: str | int | None = None
    has_header: bool = True
    add_bias: bool = True
    standardize: bool = False


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic data: ``y = g(w* . x + noise)`` with x uniform on [-1, 1].

    Noise is injected before the transform, so every target is a value of
    ``g``.  That does not keep targets inside the convexity bound: the
    convex-sqrt transform is unbounded, and its targets exceed ``y_bound``
    wherever ``|w* . x + noise| > 3 / alpha``, which grows more common
    with the number of features.  The true weights w* are a seeded uniform
    draw on [-1, 1].
    """

    n_samples: int
    n_features: int
    transform: Transform
    noise_std: float = 0.0
    seed: int = 0


def _read_matrix(path: str | Path, has_header: bool) -> tuple[list[str] | None, np.ndarray]:
    """Read a numeric CSV file as ``(header or None, float matrix)``.

    ``csv.reader`` finds the header; numpy's C tokenizer parses the rows
    below it.  Its float64 cell parser strips whitespace and calls the
    routine ``float()`` uses, so the values match ``float()`` bit for bit.
    A file it rejects, or whose matrix is empty, non-finite or not as wide
    as the header, goes to :func:`_scan_matrix`, which reads what
    ``float()`` reads and names the first bad cell or row.  So does a
    file with no non-blank row below the header, which loadtxt would
    read with a warning.
    """
    header: list[str] | None = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            if has_header:
                for row in reader:
                    if any(cell.strip() for cell in row):
                        header = [cell.strip() for cell in row]
                        break
            skiprows = reader.line_num
            has_rows = any(any(cell.strip() for cell in row) for row in reader)
        if has_rows:
            matrix = np.loadtxt(
                path, delimiter=",", comments=None, skiprows=skiprows, ndmin=2, encoding="utf-8"
            )
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        pass
    else:
        if (
            has_rows
            and matrix.size
            and (header is None or len(header) == matrix.shape[1])
            and np.isfinite(matrix).all()
        ):
            return header, matrix
    return _scan_matrix(path, has_header)


# csv.field_size_limit() is process-wide, so it is raised and restored under a lock.
_FIELD_LIMIT_LOCK = threading.Lock()


@contextlib.contextmanager
def _field_size_limit_at_least(size: int):
    with _FIELD_LIMIT_LOCK:
        limit = csv.field_size_limit(max(csv.field_size_limit(), size))
        try:
            yield
        finally:
            csv.field_size_limit(limit)


def _scan_matrix(path: str | Path, has_header: bool) -> tuple[list[str] | None, np.ndarray]:
    """Read a CSV file row by row with ``csv.reader`` and ``float()``.

    Blank rows are dropped but still counted, so errors name 1-based file
    coordinates.  No field is longer than the file, so the reader's field
    limit is raised to the file's size while it reads, and a long field
    cannot hide a bad cell after it.  The cells are converted in one numpy
    call; only if that fails are they scanned in row order to name the
    first bad cell.
    """
    try:
        with (
            open(path, "r", encoding="utf-8", newline="") as handle,
            _field_size_limit_at_least(os.fstat(handle.fileno()).st_size),
        ):
            reader = csv.reader(handle)
            try:
                rows = list(enumerate(reader, start=1))
            except csv.Error as exc:
                raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # The reader's offset is within one buffer; decode the whole file to place the byte.
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise CsvParseError(f"{path}: line {line}: byte {raw[exc.start]:#04x} is not UTF-8") from None
        raise
    rows = [(line_no, row) for line_no, row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise CsvParseError(f"{path}: no data rows")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise CsvParseError(f"{path}: header only, no data rows")

    n_columns = len(rows[0][1])
    for line_no, row in rows:
        if len(row) != n_columns:
            raise CsvParseError(
                f"{path}: line {line_no}: expected {n_columns} fields, found {len(row)}"
            )
    if header is not None and len(header) != n_columns:
        raise CsvParseError(f"{path}: header has {len(header)} fields but rows have {n_columns}")

    try:
        # numpy converts each cell with float(), so values match it bit for bit.
        matrix = np.array([row for _, row in rows], dtype=float)
        if not np.isfinite(matrix).all():
            raise ValueError("non-finite cell")
    except ValueError:
        for line_no, row in rows:
            for column, cell in enumerate(row, start=1):
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    raise NonNumericCellError(line_no, column, cell, path=path) from None
                if not finite:
                    raise NonNumericCellError(line_no, column, cell, "is not finite", path=path) from None
        raise
    return header, matrix


def _resolve_target_index(
    target_column: str | int | None, header: list[str] | None, n_columns: int
) -> int:
    if target_column is None:
        return n_columns - 1
    if isinstance(target_column, str):
        if header is None:
            raise MissingTargetColumnError(
                f"target column {target_column!r} requested but the file has no header"
            )
        try:
            return header.index(target_column)
        except ValueError:
            raise MissingTargetColumnError(
                f"target column {target_column!r} not found in header {header!r}"
            ) from None
    index = int(target_column)
    if not 0 <= index < n_columns:
        raise MissingTargetColumnError(
            f"target column index {index} out of range for {n_columns} columns"
        )
    return index


def load_csv(spec: DatasetSpec) -> Dataset:
    """Read a comma-separated numeric file into an immutable Dataset.

    Accepts an optional header row, LF or CRLF endings, and "." decimals.
    Errors carry 1-based file coordinates: ragged rows raise
    CsvParseError, unparsable or non-finite cells raise
    NonNumericCellError, and a bad ``target_column`` raises
    MissingTargetColumnError.
    """
    header, matrix = _read_matrix(spec.path, spec.has_header)
    target_index = _resolve_target_index(spec.target_column, header, matrix.shape[1])
    targets = matrix[:, target_index]
    features = np.delete(matrix, target_index, axis=1)

    if features.shape[1] == 0 and not spec.add_bias:
        raise CsvParseError(f"{spec.path}: no feature columns remain after removing the target")

    if spec.standardize and features.shape[1] > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = features.mean(axis=0)
            std = features.std(axis=0)
        for column, value in enumerate(std, start=1):
            if value == 0.0:
                reason = "has zero variance"
            elif not np.isfinite(value):
                reason = "has a standard deviation too large for float64"
            else:
                continue
            raise ValueError(f"feature column {column} {reason} and cannot be standardized")
        features = (features - mean) / std

    if spec.add_bias:
        features = np.column_stack([features, np.ones(features.shape[0])])

    return Dataset(features, targets)


def load_feature_csv(path: str | Path, has_header: bool = True) -> np.ndarray:
    """Read a feature-only CSV as an (N, d) float matrix; same rules and errors as load_csv."""
    return _read_matrix(path, has_header)[1]


_WRITE_BLOCK_ROWS = 4096


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset under the header ``x1,...,xd,target``.

    Values use shortest-round-trip decimal formatting, so reading the file
    back recovers every entry bit-for-bit.
    """
    header = [f"x{i + 1}" for i in range(dataset.n_features)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join([*header, "target"]) + "\n")
        # Blocks of rows as Python floats keep memory bounded on large datasets.
        for start in range(0, dataset.n_samples, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = np.column_stack([dataset.features[start:stop], dataset.targets[start:stop]])
            handle.write("".join([",".join(map(repr, row)) + "\n" for row in block.tolist()]))


def generate_synthetic(spec: SynthSpec) -> tuple[Dataset, np.ndarray]:
    """Draw a seeded synthetic dataset; returns (dataset, true weights).

    The features are drawn row by row and copied once to column-major
    order, the layout :class:`Dataset` keeps.  The targets come from the
    response kernel that fits and predictions use (:func:`loss._response`),
    so with ``noise_std == 0`` the data is exactly realizable by the
    generating transform and weights: the model with those weights
    predicts every target exactly.
    """
    n_samples = _count(spec.n_samples, "n_samples", 1)
    n_features = _count(spec.n_features, "n_features", 1)
    if not spec.noise_std >= 0.0:
        raise ValueError("noise_std must be nonnegative")

    rng = np.random.default_rng(spec.seed)
    weights = rng.uniform(-1.0, 1.0, n_features)
    features = np.asfortranarray(rng.uniform(-1.0, 1.0, (n_samples, n_features)))
    noise = rng.normal(0.0, spec.noise_std, n_samples) if spec.noise_std > 0 else 0.0
    targets = spec.transform.evaluate(_response(features, weights) + noise)
    return Dataset(features, np.asarray(targets, dtype=float)), weights


def estimate_target_bound(dataset: Dataset) -> float:
    """Data-driven bound ``max |y|`` (1.0 fallback for all-zero targets).

    This is the smallest bound that satisfies the convexity hypothesis on
    the dataset's targets.
    """
    largest = float(np.abs(dataset.targets).max())
    return largest if largest > 0.0 else 1.0
