"""File formats: CSV and JSON for states and Wigner grids, gnuplot scripts.

CSV contract: one header line (``gamma,delta,w`` for a Wigner grid), then
one row per sample, fields separated by ``,``, every float written with
``repr`` (shortest exact decimal, so ``-0.0`` and subnormals survive),
every line ended by ``\\r\\n``.  These are the bytes :func:`csv.writer`
gives for the same rows, but each file is written in bulk: the axes are
formatted once and a Wigner grid is written one joined gamma row at a
time.

JSON contract: the bytes are ``json.dumps(doc) + "\\n"``.  A Wigner grid's
JSON is built from the ``repr`` of each value, which is the JSON form of a
finite float, and :func:`write_wigner_json` can write the grid's CSV in
the same pass, so each value is formatted once per command.  Both formats
round-trip bit-exactly, and identical computations yield byte-identical
files.

The package needs numpy alone: no module, this one included, imports
anything beyond numpy and the standard library.
"""

import json

import numpy as np

from .errors import SchemaError
from .grids import Grid1D
from .wigner import WignerGrid

__all__ = [
    "write_wigner_csv", "read_wigner_csv", "write_wigner_json",
    "read_wigner_json", "write_wavefunction_csv", "write_wavefunction_json",
    "write_gnuplot_script", "write_marginal_csv",
]

_WIGNER_HEADER = ["gamma", "delta", "w"]
_EOL = "\r\n"


def _write_csv(path, header, blocks):
    """Write ``header`` then each ready-formatted block of whole lines."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + _EOL)
        fh.writelines(blocks)


def _write_columns_csv(path, header, *columns):
    """One row per index across equal-length float ``columns``."""
    rows = zip(*(np.asarray(c, float).tolist() for c in columns))
    _write_csv(path, header, (",".join(map(repr, row)) + _EOL for row in rows))


def _formatted_rows(grid: WignerGrid):
    """``(repr(gamma), [repr(w), ...])`` for each gamma row of ``grid``."""
    for gamma, row in zip(grid.gamma_grid.points.tolist(), grid.values):
        yield repr(gamma), list(map(repr, row.tolist()))


def _csv_blocks(deltas, rows):
    """One block of ``gamma,delta,w`` lines per formatted gamma row."""
    tails = [f",{d}," for d in deltas]
    for g, ws in rows:
        yield "".join([f"{g}{t}{w}{_EOL}" for t, w in zip(tails, ws)])


def write_wigner_csv(path, grid: WignerGrid):
    """``gamma,delta,w`` rows, row-major over gamma then delta."""
    deltas = list(map(repr, grid.delta_grid.points.tolist()))
    _write_csv(path, _WIGNER_HEADER, _csv_blocks(deltas, _formatted_rows(grid)))


def _grid_from_points(pts: np.ndarray, what: str) -> Grid1D:
    if pts.ndim != 1 or not pts.size:
        raise SchemaError(f"{what} axis must be a non-empty list of numbers")
    grid = Grid1D(float(pts[0]), float(pts[-1]), len(pts))
    if not np.array_equal(grid.points, pts) and not np.allclose(
            grid.points, pts, rtol=0.0, atol=1e-12 * max(1.0, np.abs(pts).max())):
        raise SchemaError(f"{what} axis values are not a uniform grid")
    return grid


def read_wigner_csv(path) -> WignerGrid:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = fh.readline()
        if header.rstrip("\r\n").split(",") != _WIGNER_HEADER:
            raise SchemaError(f"unexpected CSV header {header!r}")
        body = fh.tell()
        if not fh.readline().strip():
            raise SchemaError("empty Wigner CSV")
        fh.seek(body)
        try:
            rows = np.loadtxt(fh, delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
        except ValueError as exc:
            # numpy appends advice on its own API after a ';'
            reason = str(exc).split(";")[0]
            raise SchemaError(f"malformed Wigner CSV: {reason}") from None
    if rows.shape[1] != 3:
        raise SchemaError(f"Wigner CSV rows have {rows.shape[1]} fields, "
                          "expected 3")
    gammas, deltas, w = rows.T
    # row-major layout: delta cycles fastest, so the block length is the
    # distance to the first reappearance of the leading delta value
    repeats = np.nonzero(deltas[1:] == deltas[0])[0]
    n_delta = int(repeats[0] + 1) if repeats.size else len(deltas)
    if len(rows) % n_delta:
        raise SchemaError("CSV rows do not form a complete gamma x delta grid")
    n_gamma = len(rows) // n_delta
    gamma_axis, delta_axis = gammas[::n_delta], deltas[:n_delta]
    gamma_grid = _grid_from_points(gamma_axis, "gamma")
    delta_grid = _grid_from_points(delta_axis, "delta")
    # every row, not only the axes read above, must hold its grid point
    # (the repeat of gamma_axis and the tile of delta_axis, by broadcast)
    off = ((gammas.reshape(n_gamma, n_delta) != gamma_axis[:, None])
           | (deltas.reshape(n_gamma, n_delta) != delta_axis)).ravel()
    if off.any():
        i = int(np.argmax(off))
        g, d = gamma_axis[i // n_delta], delta_axis[i % n_delta]
        raise SchemaError(
            f"Wigner CSV line {i + 2} holds gamma,delta = "
            f"{float(gammas[i])!r},{float(deltas[i])!r} where the grid order "
            f"puts {float(g)!r},{float(d)!r}")
    return WignerGrid(gamma_grid, delta_grid, w.reshape(n_gamma, n_delta))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def write_wigner_json(path, grid: WignerGrid, *, plot_csv=None):
    """Envelope ``{"meta": ..., "gamma": [...], "delta": [...], "w": [[...]]}``.

    ``meta`` goes through :func:`json.dumps` and each float is written as
    its ``repr``.  Given ``plot_csv``, the grid is also written there as
    :func:`write_wigner_csv` writes it, from the same formatted values.
    """
    meta = json.dumps(grid.meta)
    deltas = list(map(repr, grid.delta_grid.points.tolist()))
    gammas, rows = [], []

    def keep_json(formatted):
        # only each row's joined JSON text outlives its CSV block
        for g, ws in formatted:
            gammas.append(g)
            rows.append(f"[{', '.join(ws)}]")
            yield g, ws

    formatted = keep_json(_formatted_rows(grid))
    if plot_csv is None:
        for _ in formatted:
            pass
    else:
        _write_csv(plot_csv, _WIGNER_HEADER, _csv_blocks(deltas, formatted))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"meta": {meta}, "gamma": [{", ".join(gammas)}], '
                 f'"delta": [{", ".join(deltas)}], "w": [')
        fh.write(", ".join(rows))
        fh.write("]}\n")


def read_wigner_json(path) -> WignerGrid:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("Wigner JSON top level must be an object")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise SchemaError("'meta' in Wigner JSON must be an object")
    for key in ("gamma", "delta", "w"):
        if key not in doc:
            raise SchemaError(f"missing field '{key}' in Wigner JSON")
    try:
        gamma, delta, w = (np.array(doc[key], dtype=float)
                           for key in ("gamma", "delta", "w"))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed Wigner JSON: {exc}") from None
    return WignerGrid(_grid_from_points(gamma, "gamma"),
                      _grid_from_points(delta, "delta"), w,
                      meta=meta)


def write_wavefunction_csv(path, coordinates, samples):
    """``coordinate,re,im`` rows."""
    samples = np.asarray(samples, dtype=complex)
    _write_columns_csv(path, ["coordinate", "re", "im"], coordinates,
                       samples.real, samples.imag)


def write_wavefunction_json(path, coordinates, samples, meta=None):
    samples = np.asarray(samples, dtype=complex)
    _write_json(path, {
        "meta": dict(meta) if meta else {},
        "coordinate": np.asarray(coordinates, dtype=float).tolist(),
        "re": samples.real.tolist(),
        "im": samples.imag.tolist(),
    })


def write_marginal_csv(path, axis_name, coordinates, density):
    _write_columns_csv(path, [axis_name, "density"], coordinates, density)


def write_gnuplot_script(path, data_path, title):
    """Companion heat-map script for a Wigner CSV file."""
    lines = [
        "# gnuplot script; run:  gnuplot -p <this file>",
        "set datafile separator comma",
        "set xlabel 'gamma'",
        "set ylabel 'delta'",
        f"set title '{title}'",
        "set cbrange [*:*]",
        "set palette defined (-1 'blue', 0 'white', 1 'red')",
        f"plot '{data_path}' skip 1 using 1:2:3 with image notitle",
        "",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
