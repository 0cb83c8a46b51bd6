"""Tests for CSV ingestion, synthetic generation, and target bounds."""

import csv
import io
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexreg import (
    ConvexSqrtTransform,
    CsvParseError,
    Dataset,
    DatasetSpec,
    MissingTargetColumnError,
    Model,
    NonNumericCellError,
    SynthSpec,
    TanhTransform,
    TargetBoundWarning,
    estimate_target_bound,
    gd_fit,
    generate_synthetic,
    load_csv,
    load_feature_csv,
    write_csv,
)
from convexreg.data import _read_matrix, _scan_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# Both loaders share one reader, so its errors are checked through each.
both_loaders = pytest.mark.parametrize(
    "load",
    [lambda path: load_csv(DatasetSpec(path)), load_feature_csv],
    ids=["load_csv", "load_feature_csv"],
)


class TestLoadCsv:
    def test_basic_parse_appends_bias(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n2,4\n")
        dataset = load_csv(DatasetSpec(path))
        assert dataset.n_samples == 2
        assert dataset.n_features == 2  # feature + bias
        np.testing.assert_array_equal(dataset.targets, [2.0, 4.0])
        np.testing.assert_array_equal(dataset.features, [[1.0, 1.0], [2.0, 1.0]])

    def test_named_target_column(self, tmp_path):
        path = write(tmp_path, "a,b,target\n1,2,3\n4,5,6\n")
        dataset = load_csv(DatasetSpec(path, target_column="target"))
        np.testing.assert_array_equal(dataset.targets, [3.0, 6.0])
        np.testing.assert_array_equal(dataset.features[:, :2], [[1.0, 2.0], [4.0, 5.0]])

    def test_target_by_index_headerless(self, tmp_path):
        path = write(tmp_path, "1,2,3\n4,5,6\n")
        dataset = load_csv(DatasetSpec(path, target_column=0, has_header=False, add_bias=False))
        np.testing.assert_array_equal(dataset.targets, [1.0, 4.0])
        np.testing.assert_array_equal(dataset.features, [[2.0, 3.0], [5.0, 6.0]])

    @both_loaders
    def test_non_numeric_cell_named(self, tmp_path, load):
        path = write(tmp_path, "x,y\n1,2\n2,abc\n")
        with pytest.raises(NonNumericCellError) as err:
            load(path)
        assert err.value.line == 3
        assert err.value.column == 2
        assert "abc" in str(err.value)

    @both_loaders
    def test_non_finite_cell_rejected(self, tmp_path, load):
        path = write(tmp_path, "x,y\n1,2\nnan,1\n")
        with pytest.raises(NonNumericCellError) as err:
            load(path)
        assert err.value.line == 3
        assert err.value.column == 1

    @both_loaders
    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("x,y\n1,2\nnan,1\n2,abc\n", 3, 1, "cell 'nan' is not finite"),
            ("x,y\n1,2\n2,abc\nnan,1\n", 3, 2, "cell 'abc' is not a number"),
            ("x,y\n1,2\n\n , \n3,inf\n", 5, 2, "cell 'inf' is not finite"),
        ],
        ids=["nan-then-abc", "abc-then-nan", "after-blank-lines"],
    )
    def test_first_bad_cell_in_file_order_is_named(self, tmp_path, load, text, line, column, message):
        path = write(tmp_path, text)
        with pytest.raises(NonNumericCellError) as err:
            load(path)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{path}: line {line}, column {column}: {message}"

    @both_loaders
    def test_ragged_row_names_line(self, tmp_path, load):
        path = write(tmp_path, "x,y\n1,2\n1,2,3\n")
        with pytest.raises(CsvParseError) as err:
            load(path)
        assert "line 3" in str(err.value)

    @both_loaders
    def test_header_width_must_match_rows(self, tmp_path, load):
        path = write(tmp_path, "x,y,z\n1,2\n3,4\n")
        with pytest.raises(CsvParseError, match="header has 3 fields but rows have 2"):
            load(path)

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingTargetColumnError):
            load_csv(DatasetSpec(path, target_column="c"))
        with pytest.raises(MissingTargetColumnError):
            load_csv(DatasetSpec(path, target_column=5))

    @both_loaders
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no data rows"),
            ("\n \n", "no data rows"),
            ("x,y\n", "header only, no data rows"),
            ("x,y\n\n , \n", "header only, no data rows"),
        ],
        ids=["empty", "blank", "header", "header-then-blank"],
    )
    def test_empty_and_header_only_files(self, tmp_path, load, text, message):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
            with pytest.raises(CsvParseError) as err:
                load(path)
        assert str(err.value) == f"{path}: {message}"

    @both_loaders
    def test_oversized_field_names_line(self, tmp_path, load):
        path = write(tmp_path, "x,y\n1,2\n" + "1" * 200_000 + ",3\n")
        limit = csv.field_size_limit()
        with pytest.raises(NonNumericCellError) as err:
            load(path)
        assert str(err.value) == f"{path}: line 3, column 1: cell {'1' * 64!r}... (200000 characters) is not finite"
        assert csv.field_size_limit() == limit

    @both_loaders
    def test_first_bad_cell_after_a_long_valid_field(self, tmp_path, load):
        long_zero = "0." + "0" * 200_000
        path = write(tmp_path, f"x,y\n1,2\n{long_zero},3\n")
        load(path)  # the long field is valid on its own
        path = write(tmp_path, f"x,y\n1,2\n{long_zero},3\n4,abc\n")
        with pytest.raises(NonNumericCellError) as err:
            load(path)
        assert str(err.value) == f"{path}: line 4, column 2: cell 'abc' is not a number"

    def test_concurrent_scans_restore_the_field_limit(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n" + "1" * 200_000 + ",3\n")
        limit = csv.field_size_limit()
        messages = []

        def scan():
            for _ in range(20):
                try:
                    _scan_matrix(path, True)
                except NonNumericCellError as exc:
                    messages.append(str(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(messages) == 160
        assert set(messages) == {f"{path}: line 3, column 1: cell {'1' * 64!r}... (200000 characters) is not finite"}
        assert csv.field_size_limit() == limit

    def test_concurrent_reads_leave_the_warning_filters_alone(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n3,4\n")
        errors = []

        def read_thirty_times():
            try:
                for _ in range(30):
                    load_csv(DatasetSpec(path))
            except Exception as exc:  # surfaced below: a thread cannot fail the test itself
                errors.append(exc)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=read_thirty_times) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            assert warnings.filters == before
            assert caught == []
            gd_fit(Dataset(np.ones((2, 1)), np.array([2.0, -2.0])), ConvexSqrtTransform(1.0, 1.0), np.zeros(1))
            assert [w.category for w in caught] == [TargetBoundWarning]

    def test_non_numeric_cell_error_names_the_file_only_when_given(self):
        err = NonNumericCellError(3, 2, "abc")
        assert (err.line, err.column, str(err)) == (3, 2, "line 3, column 2: cell 'abc' is not a number")
        err = NonNumericCellError(3, 2, "inf", "is not finite", path="d.csv")
        assert str(err) == "d.csv: line 3, column 2: cell 'inf' is not finite"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(DatasetSpec(tmp_path / "nope.csv"))

    def test_crlf_and_trailing_newlines(self, tmp_path):
        path = write(tmp_path, "x,y\r\n1,2\r\n2,4\r\n\r\n")
        dataset = load_csv(DatasetSpec(path))
        assert dataset.n_samples == 2

    def test_standardization(self, tmp_path):
        rng = np.random.default_rng(501)
        rows = rng.uniform(-5, 5, (50, 3))
        body = "a,b,target\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        path = write(tmp_path, body + "\n")
        dataset = load_csv(DatasetSpec(path, standardize=True))
        columns = dataset.features[:, :2]  # bias exempt
        assert np.all(np.abs(columns.mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(columns.var(axis=0) - 1.0) <= 1e-12)
        np.testing.assert_array_equal(dataset.features[:, 2], np.ones(50))

    def test_zero_variance_column_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,target\n1,2,3\n1,5,6\n")
        with pytest.raises(ValueError, match="zero variance"):
            load_csv(DatasetSpec(path, standardize=True))

    def test_overflowing_std_rejected_quietly(self, tmp_path):
        path = write(tmp_path, "a,b,t\n1,1e308,2\n2,-1e308,3\n5,0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not escape
            with pytest.raises(ValueError, match="feature column 2 has a standard deviation"):
                load_csv(DatasetSpec(path, standardize=True))

    @both_loaders
    def test_non_utf8_file_named_with_line(self, tmp_path, load):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xe94\n")  # past the first read buffer
        with pytest.raises(CsvParseError, match=r"latin1\.csv: line 5002: byte 0xe9 is not UTF-8"):
            load(path)


# Finite numbers in the spellings float() and the tokenizer both accept.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e-05", "1e22", " 1.5 ", "\t2\u2003", "1.", ".5", "+3"]),
)
# Cells the tokenizer and float() may disagree on, or that the reader must reject.
_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from([
        '"2"', '"1,5"', '"1\n2"', "1_0", "\uff11", "nan", "inf", "-Infinity", "1e400", "0x10",
        "", " ", "abc", "1e", "\ufeff1",
    ]),
)


@st.composite
def _csv_files(draw):
    """``(text, has_header)``: mostly rectangular rows of tricky cells."""
    width = draw(st.integers(1, 3))
    cells = draw(st.sampled_from([_NUMBERS, _TOKENS]))
    # Most files have rectangular rows: each fault below is drawn for about one file in four.
    rows = draw(st.lists(
        st.one_of(
            st.lists(cells, min_size=width, max_size=width),
            st.sampled_from([[], [" "], ["", ""]]),  # blank and whitespace-only rows
        ),
        max_size=6,
    ))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(_TOKENS, min_size=1, max_size=4)))
    has_header = draw(st.booleans())
    trailing_comma = draw(st.sampled_from(["", "", "", ","]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # Header cells are drawn like data cells, so a numeric header must still be skipped.
    header = [",".join(draw(st.lists(cells, min_size=width, max_size=width)))] if has_header else []
    lines = header + [",".join(row) + trailing_comma for row in rows]
    return newline.join(lines) + newline, has_header


def _oracle(text, has_header):
    """The reader's contract: csv.reader rows, blank rows dropped, float() per cell."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if any(c.strip() for c in row)]
    header = [c.strip() for c in rows.pop(0)] if has_header and rows else None
    if not rows or len({len(row) for row in rows}) != 1 or (header and len(header) != len(rows[0])):
        return None
    try:
        matrix = np.array([[float(c) for c in row] for row in rows])
    except ValueError:
        return None
    return (header, matrix) if np.isfinite(matrix).all() else None


def _as_matrix(dataset):
    # load_csv appends the bias column last and takes the targets from the last column.
    return np.column_stack([dataset.features[:, :-1], dataset.targets])


class TestReaderMatchesFloat:
    """The tokenizer fast path reads exactly what csv.reader plus float() read."""

    @settings(max_examples=400, deadline=None)
    @given(_csv_files())
    def test_differential(self, case):
        text, has_header = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "case.csv"
            path.write_text(text, encoding="utf-8", newline="")
            expected = _oracle(text, has_header)
            loaders = [
                lambda: _read_matrix(path, has_header),
                lambda: (None, load_feature_csv(path, has_header)),
                lambda: (None, _as_matrix(load_csv(DatasetSpec(path, has_header=has_header)))),
            ]
            if expected is None:
                with pytest.raises(ValueError) as reference:
                    _scan_matrix(path, has_header)
                for load in loaders:
                    with pytest.raises(ValueError) as err:
                        load()
                    assert type(err.value) is type(reference.value)
                    assert str(err.value) == str(reference.value)
            else:
                for load, header in zip(loaders, [expected[0], None, None]):
                    got_header, matrix = load()
                    assert got_header == header
                    assert matrix.shape == expected[1].shape
                    assert matrix.tobytes() == expected[1].tobytes()


class TestRoundTrip:
    def test_write_then_load_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(502)
        features = np.concatenate(
            [rng.uniform(-1, 1, (20, 2)), [[1.0 / 3.0, 1e-300], [0.1, 1e300]]]
        )
        targets = np.concatenate([rng.standard_normal(20), [7.0 / 11.0, -0.3]])
        dataset = Dataset(features, targets)
        path = tmp_path / "round.csv"
        write_csv(dataset, path)
        back = load_csv(DatasetSpec(path, add_bias=False, standardize=False))
        np.testing.assert_array_equal(back.features, dataset.features)
        np.testing.assert_array_equal(back.targets, dataset.targets)

    def test_bytes_are_repr_of_each_cell(self, tmp_path):
        special = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2]
        rng = np.random.default_rng(504)
        # Enough rows to span several write blocks.
        matrix = np.concatenate([np.resize(special, (4, 6)), rng.standard_normal((9000, 6))])
        path = tmp_path / "pinned.csv"
        write_csv(Dataset(matrix[:, :5], matrix[:, 5]), path)
        expected = "x1,x2,x3,x4,x5,target\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in matrix
        )
        assert path.read_bytes() == expected.encode("utf-8")

    def test_header_names(self, tmp_path):
        dataset = Dataset(np.array([[1.0, 2.0]]), np.array([3.0]))
        path = tmp_path / "named.csv"
        write_csv(dataset, path)
        assert path.read_text().splitlines()[0] == "x1,x2,target"


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(50, 3, ConvexSqrtTransform(1.0, 1.0), noise_std=0.1, seed=9)
        first, w1 = generate_synthetic(spec)
        second, w2 = generate_synthetic(spec)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.targets, second.targets)
        np.testing.assert_array_equal(w1, w2)

    def test_zero_noise_is_realizable(self):
        transform = ConvexSqrtTransform(1.0, 1.0)
        spec = SynthSpec(100, 3, transform, noise_std=0.0, seed=10)
        dataset, _ = generate_synthetic(spec)
        report = gd_fit(dataset, transform, np.zeros(3))
        assert report.final_loss <= 1e-10 * dataset.n_samples

    def test_noise_stays_inside_transform_range(self):
        transform = TanhTransform(2.0)
        dataset, _ = generate_synthetic(SynthSpec(500, 3, transform, noise_std=5.0, seed=11))
        assert np.all(np.abs(dataset.targets) < 2.0)

    # At 10 x 21 the row-major and column-major products differ in some
    # cells; at 10 x 2 they agree.
    @pytest.mark.parametrize("d", [2, 21])
    def test_zero_noise_targets_are_the_transform_of_the_returned_weights(self, d):
        transform = ConvexSqrtTransform(1.0, 1.0)
        dataset, w = generate_synthetic(SynthSpec(10, d, transform, seed=12))
        assert w.shape == (d,)
        assert dataset.targets.tobytes() == transform.evaluate(dataset.features @ w).tobytes()
        assert Model(w, transform).predict(dataset.features).tobytes() == dataset.targets.tobytes()

    def test_validation(self):
        transform = ConvexSqrtTransform(1.0, 1.0)
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(0, 3, transform))
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(3, 0, transform))
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(3, 2, transform, noise_std=-1.0))
        with pytest.raises(ValueError, match=r"^n_samples must be an integer >= 1, got 2.5$"):
            generate_synthetic(SynthSpec(2.5, 3, transform))
        with pytest.raises(ValueError, match=r"^n_features must be an integer >= 1, got 2.5$"):
            generate_synthetic(SynthSpec(3, 2.5, transform))


class TestEstimateTargetBound:
    def test_examples(self):
        dataset = Dataset(np.ones((3, 1)), np.array([-2.0, 1.0, 3.0]))
        assert estimate_target_bound(dataset) == 3.0
        zeros = Dataset(np.ones((2, 1)), np.zeros(2))
        assert estimate_target_bound(zeros) == 1.0

    def test_is_the_largest_target_magnitude(self):
        rng = np.random.default_rng(503)
        for _ in range(20):
            targets = rng.uniform(-10, 10, 30)
            dataset = Dataset(rng.uniform(-1, 1, (30, 2)), targets)
            assert estimate_target_bound(dataset) == np.abs(targets).max()


class TestLoadFeatureCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "x1,x2\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_feature_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4\n")
        np.testing.assert_array_equal(
            load_feature_csv(path, has_header=False), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_bad_cell(self, tmp_path):
        path = write(tmp_path, "x\noops\n")
        with pytest.raises(NonNumericCellError):
            load_feature_csv(path)
