"""Deterministic output formats for the batch CLI.

CSV files carry a header row with SI units in the column names, then one
row per sample: integers as %d, integer-valued floats below 1e15 as %.1f and
every other float as %.12g, so identical runs are byte-identical.  The writer
takes whole columns and formats each distinct value of a column once per
block of rows.  Profiles are written as binary 16-bit PGM (portable graymap,
maxval 65535, row-major, max-normalized) with a JSON sidecar holding the
full parameter set.  The run manifest lists the command-line arguments, the
gsmspdc and NumPy versions, every resolved parameter, the seed, and SHA-256
hashes of all written files, each hashed a chunk at a time.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__

__all__ = [
    "write_csv",
    "write_pgm16",
    "write_json",
    "sha256_file",
    "write_manifest",
]


# rows formatted by one % call: bounds the Python objects a table makes at once
CSV_CHUNK_ROWS = 2048
# bytes sha256_file reads at a time: hashing a frame stack stays small
HASH_CHUNK_BYTES = 2**16
# %-format and separator of a float cell: integer-valued below 1e15, or not
_FLOAT_CELLS = {sep: np.array([f"%.12g{sep}", f"%.1f{sep}"], dtype=object)
                for sep in ",\n"}


def _cell_formats(column, sep):
    """The %-format of each cell of a column, with the separator after it."""
    if column.dtype.kind in "iu":
        return np.full(column.size, f"%d{sep}", dtype=object)
    if column.dtype.kind != "f":
        raise TypeError(f"a CSV column must be integer or float, got "
                        f"{column.dtype}")
    integral = (column == np.trunc(column)) & (np.abs(column) < 1e15)
    return _FLOAT_CELLS[sep][integral.view(np.int8)]


def _cell_texts(column, sep):
    """Each cell of a column as text with the separator after it, each
    distinct value formatted once, all of them by one % call."""
    # distinct bits, so -0.0 keeps its own text
    keys = column.view(np.uint64) if column.dtype.kind == "f" else column
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = column[first]
    texts = ("\0".join(_cell_formats(distinct, sep).tolist())
             % tuple(distinct.tolist()))
    return np.array(texts.split("\0"), dtype=object)[inverse]


def write_csv(path, header, columns):
    """Write equal-length integer or float columns under a header row.

    Integers are written as %d.  A float is written as %.1f when it is
    integer-valued and below 1e15 in magnitude, and as %.12g otherwise
    (nan, inf and -inf included).  The rows go CSV_CHUNK_ROWS at a time, and
    within a chunk each distinct value of a column is formatted once.  Float
    columns are widened to float64 first, so the rule is decided in float64
    whatever the column's own float type.
    """
    columns = [np.asarray(column).ravel() for column in columns]
    columns = [c.astype(np.float64, copy=False) if c.dtype.kind == "f" else c
               for c in columns]
    if len(columns) != len(header) or len({c.size for c in columns}) > 1:
        raise ValueError("write_csv needs one equal-length column per header "
                         "name")
    n_rows = columns[0].size if columns else 0
    seps = [","] * (len(columns) - 1) + ["\n"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for r0 in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [column[r0:r0 + CSV_CHUNK_ROWS] for column in columns]
            cells = np.empty((chunk[0].size, len(chunk)), dtype=object)
            for k, (column, sep) in enumerate(zip(chunk, seps)):
                cells[:, k] = _cell_texts(column, sep)
            fh.write("".join(cells.ravel().tolist()))


def write_pgm16(path, grid):
    """Binary PGM, maxval 65535.  The grid is max-normalized before scaling."""
    grid = np.asarray(grid, dtype=float)
    peak = grid.max()
    if peak <= 0:
        raise ValueError("cannot write an all-zero image")
    scaled = np.round(grid / peak * 65535.0).astype(">u2")
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(scaled.tobytes(order="C"))


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="ascii")


def sha256_file(path) -> str:
    """SHA-256 of a file, read HASH_CHUNK_BYTES at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, experiment, resolved, outputs, argv):
    """Write run_manifest.json: the command-line arguments, the gsmspdc and
    NumPy versions, the resolved parameters and the output hashes."""
    manifest = {
        "argv": list(argv),
        "versions": {"gsmspdc": __version__, "numpy": np.__version__},
        "experiment": experiment,
        "parameters": _jsonable(resolved),
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    path = Path(out_dir) / "run_manifest.json"
    write_json(path, manifest)
    return path
