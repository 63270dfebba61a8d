import hashlib

import numpy as np
import pytest

from gsmspdc.iofmt import CSV_CHUNK_ROWS, HASH_CHUNK_BYTES, sha256_file, write_csv


def reference_csv(header, rows):
    """The per-cell writer write_csv replaced: one Python call per cell."""
    def cell(value):
        if isinstance(value, (float, np.floating)):
            value = float(value)
            if value.is_integer() and abs(value) < 1e15:
                return f"{value:.1f}"
            return f"{value:.12g}"
        return str(value)
    lines = [",".join(header)] + [",".join(cell(v) for v in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e16,
               np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.5, 1.0 / 3.0,
               2.0**52 + 0.5, 123456789012.0, 1e-7, 6.02214076e23]


def written(tmp_path, header, columns):
    path = tmp_path / "table.csv"
    # the CLI runs the models with these traps set; the writer must not trip
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        write_csv(path, header, columns)
    return path.read_bytes()


class TestWriteCsv:
    def test_edge_values_match_per_cell_writer(self, tmp_path):
        floats = np.array(EDGE_FLOATS)
        ints = np.arange(floats.size) * 7 - 30
        header = ["j", "value", "negated"]
        got = written(tmp_path, header, [ints, floats, -floats])
        rows = list(zip(ints.tolist(), floats.tolist(), (-floats).tolist()))
        assert got == reference_csv(header, rows).encode("ascii")

    def test_chunk_boundaries_match_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * CSV_CHUNK_ROWS + 5
        # a mix of integer-valued and fractional floats in every chunk
        values = np.where(rng.random(n) < 0.3, np.round(rng.normal(0, 1e6, n)),
                          rng.normal(0, 1e3, n))
        columns = [np.arange(n), values, np.full(n, 0.25)]
        got = written(tmp_path, ["j", "x", "q"], columns)
        rows = zip(columns[0].tolist(), values.tolist(), columns[2].tolist())
        assert got == reference_csv(["j", "x", "q"], rows).encode("ascii")

    def test_repeated_values_match_per_cell_writer(self, tmp_path):
        # each distinct value is formatted once a chunk: -0.0 and 0.0, and
        # NaNs of either sign, must still each read as the per-cell writer
        # writes them
        rng = np.random.default_rng(8)
        n = 2 * CSV_CHUNK_ROWS + 7
        values = rng.permutation(np.resize(EDGE_FLOATS + [-np.nan], n))
        columns = [values, -values, rng.integers(-3, 3, n)]
        got = written(tmp_path, ["x", "negated", "j"], columns)
        rows = zip(*(column.tolist() for column in columns))
        assert got == reference_csv(["x", "negated", "j"],
                                    rows).encode("ascii")

    def test_float32_column_matches_per_cell_writer(self, tmp_path):
        # the integer-valued-below-1e15 rule is decided in float64, so
        # float32(1e15) = 999999986991104.0 is written %.1f, not %.12g
        floats = np.array(EDGE_FLOATS, dtype=np.float32)
        got = written(tmp_path, ["value"], [floats])
        rows = [(value,) for value in floats]
        assert got == reference_csv(["value"], rows).encode("ascii")

    def test_python_lists_and_empty_table(self, tmp_path):
        assert written(tmp_path, ["a", "b"], [[1.0, 2.5], [3, 4]]) == \
            b"a,b\n1.0,3\n2.5,4\n"
        assert written(tmp_path, ["a"], [np.array([])]) == b"a\n"

    def test_rejects_ragged_or_non_numeric_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])
        with pytest.raises(TypeError):
            write_csv(tmp_path / "t.csv", ["a"], [["x"]])


@pytest.mark.parametrize("size", [0, 1, HASH_CHUNK_BYTES - 1, HASH_CHUNK_BYTES,
                                  HASH_CHUNK_BYTES + 1, 3 * HASH_CHUNK_BYTES + 5])
def test_chunked_hash_equals_whole_file_hash(tmp_path, size):
    path = tmp_path / "blob.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
