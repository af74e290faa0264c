"""Row-by-row reference readers for the vectorized table parser in ``forestseg.io``.

These convert one token at a time with Python's ``float`` and ``int`` and
order label-table rows with ``argsort``; header parsing is shared with
``forestseg.io``. The fast readers must return bit-identical arrays or raise
the same :class:`ParseError` message.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from forestseg.core import PointCloud
from forestseg.errors import ParseError
from forestseg.io import _CLOUD_TYPES, _FLOAT_PLY_TYPES, _INT_PLY_TYPES, _check_unique, _table_lines


def _parse_rows(path: Path, lines: Sequence[str], linenos: Sequence[int], width: int,
                fields: dict[str, tuple[int, Callable]], sep: str | None) -> dict[str, npt.NDArray]:
    """Parse rows of ``width`` ``sep``-separated values, found on file lines
    ``linenos``, into one array per field.

    ``fields`` maps a name to its column index and converter; the converters
    run in that order on each row, ``float`` ones filling float64 arrays and
    the rest int64. A wrong value count, or a value a converter rejects or
    its array cannot hold, raises :class:`ParseError` naming the line.
    """
    out = {name: np.empty(len(lines), dtype=np.float64 if convert is float else np.int64)
           for name, (_, convert) in fields.items()}
    targets = [(out[name], i, convert) for name, (i, convert) in fields.items()]
    for row, (lineno, raw) in enumerate(zip(linenos, lines)):
        tokens = raw.split(sep)
        if len(tokens) != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} values, got {len(tokens)}")
        try:
            for array, i, convert in targets:
                array[row] = convert(tokens[i])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return out


def _parse_cloud(path: Path, lines: Sequence[str], linenos: Sequence[int], columns: list[str],
                 sep: str | None) -> PointCloud:
    """Parse point rows whose columns are named ``columns`` (names are unique)."""
    col = {name: i for i, name in enumerate(columns)}
    fields = {name: (col[name], convert) for name, convert in _CLOUD_TYPES.items() if name in col}
    values = _parse_rows(path, lines, linenos, len(columns), fields, sep)
    return PointCloud(positions=np.column_stack([values["x"], values["y"], values["z"]]),
                      semantic=values.get("semantic"), instance=values.get("instance"))


def reference_read_ply(path) -> PointCloud:
    """Read an ASCII PLY with properties x, y, z and optional semantic, instance."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(f"{path}: line 1: expected 'ply' magic, got {lines[0]!r}" if lines
                         else f"{path}: empty file")

    n_vertices = None
    properties: list[str] = []
    data_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("comment") or not line:
            continue
        if line == "end_header":
            data_start = lineno
            break
        tokens = line.split()
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise ParseError(f"{path}: line {lineno}: only 'format ascii 1.0' is supported, got {line!r}")
        elif tokens[0] == "element":
            if tokens[1:2] != ["vertex"]:
                raise ParseError(f"{path}: line {lineno}: unsupported element {' '.join(tokens[1:2])!r}")
            try:
                n_vertices = int(tokens[2])
                if n_vertices < 0:
                    raise ValueError
            except (IndexError, ValueError):
                raise ParseError(f"{path}: line {lineno}: bad vertex count in {line!r}") from None
        elif tokens[0] == "property":
            if n_vertices is None:
                raise ParseError(f"{path}: line {lineno}: property outside vertex element")
            if len(tokens) != 3:
                raise ParseError(f"{path}: line {lineno}: malformed property {line!r}")
            ptype, pname = tokens[1], tokens[2]
            if pname in ("x", "y", "z") and ptype not in _FLOAT_PLY_TYPES:
                raise ParseError(f"{path}: line {lineno}: {pname} must be a float type, got {ptype!r}")
            if pname in ("semantic", "instance") and ptype not in _INT_PLY_TYPES:
                raise ParseError(f"{path}: line {lineno}: {pname} must be an integer type, got {ptype!r}")
            _check_unique(path, lineno, [*properties, pname])
            properties.append(pname)
        else:
            raise ParseError(f"{path}: line {lineno}: unexpected header line {line!r}")

    if data_start is None:
        raise ParseError(f"{path}: missing end_header")
    if n_vertices is None:
        raise ParseError(f"{path}: header declares no vertex element")
    for req in ("x", "y", "z"):
        if req not in properties:
            raise ParseError(f"{path}: header lacks required property {req!r}")

    data_lines = lines[data_start:]
    if len(data_lines) < n_vertices:
        raise ParseError(f"{path}: header declares {n_vertices} vertices but only {len(data_lines)} data lines follow")
    cloud = _parse_cloud(path, data_lines[:n_vertices], range(data_start + 1, data_start + 1 + n_vertices),
                         properties, None)
    for lineno, raw in enumerate(data_lines[n_vertices:], start=data_start + 1 + n_vertices):
        if raw.strip():
            raise ParseError(f"{path}: line {lineno}: data beyond the {n_vertices} declared vertices")
    return cloud


def reference_read_tsv(path) -> PointCloud:
    """Read a TSV cloud with columns x y z [semantic] [instance].

    A header row is optional; without one, columns are taken positionally in
    the order above.
    """
    path = Path(path)
    lines, linenos = _table_lines(path)
    first, first_lineno = lines[0].split("\t"), linenos[0]
    if any(tok.strip().isalpha() for tok in first):
        columns = [tok.strip() for tok in first]
        for name in columns:
            if name not in _CLOUD_TYPES:
                raise ParseError(f"{path}: line {first_lineno}: unknown column {name!r}")
        _check_unique(path, first_lineno, columns)
        lines, linenos = lines[1:], linenos[1:]
    else:
        columns = list(_CLOUD_TYPES)[: len(first)]
    for req in ("x", "y", "z"):
        if req not in columns:
            raise ParseError(f"{path}: line {first_lineno}: missing required column {req!r}")
    return _parse_cloud(path, lines, linenos, columns, "\t")


def reference_read_labels_tsv(path) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64] | None]:
    """Read per-point labels from a label table or a labeled cloud TSV/PLY.

    Returns ``(instance, semantic)`` ordered by point id; semantic is None
    when the file carries none.
    """
    path = Path(path)
    if path.suffix.lower() == ".ply":
        cloud = reference_read_ply(path)
    else:
        lines, linenos = _table_lines(path)
        header = [tok.strip() for tok in lines[0].split("\t")]
        cloud = reference_read_tsv(path) if "x" in header else None
    if cloud is not None:
        if cloud.instance is None:
            raise ParseError(f"{path}: no instance labels present")
        return cloud.instance, cloud.semantic
    if header[:2] != ["point_id", "instance"]:
        raise ParseError(f"{path}: line {linenos[0]}: expected columns starting 'point_id\\tinstance', "
                         f"got {lines[0]!r}")
    _check_unique(path, linenos[0], header)
    for name in header[2:]:
        if name != "semantic":
            raise ParseError(f"{path}: line {linenos[0]}: unknown column {name!r}")
    n = len(lines) - 1
    seen = np.zeros(n, dtype=bool)

    def point_id(token: str) -> int:
        pid = int(token)
        if not 0 <= pid < n:
            raise ValueError(f"point_id {pid} outside 0..{n - 1}")
        if seen[pid]:
            raise ValueError(f"duplicate point_id {pid}")
        seen[pid] = True
        return pid

    fields = {"point_id": (0, point_id), "instance": (1, int)}
    if "semantic" in header:
        fields["semantic"] = (2, int)
    values = _parse_rows(path, lines[1:], linenos[1:], len(header), fields, "\t")
    # Every id in 0..n-1 appears exactly once, so this sorts the rows by point id.
    order = np.argsort(values["point_id"])
    return values["instance"][order], values["semantic"][order] if "semantic" in values else None
