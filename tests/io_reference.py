"""Reference implementations for ``forestseg.io``.

Row-by-row readers for the vectorized table parser: these convert one token
at a time with Python's ``float`` and ``int``, check label-table ids and
values one row at a time, and order label-table rows with ``argsort``. They
read text and parse PLY headers and TSV header rows with ``forestseg.io``'s
own functions (``_read_lines``, ``_ply_header``, ``_tsv_columns``). The fast
readers must return bit-identical arrays or raise the same
:class:`ParseError` or :class:`InvalidLabel` message.

The label-table writer that joins ``str`` of each value, for the integer
kernel of ``write_labels_tsv``: both must give the same bytes.

The indented block-file writer, the layout ``write_block_file`` used before
it switched to compact JSON: files it writes must still read back to the same
prediction.
"""

from __future__ import annotations

import json

from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from forestseg.core import _LABEL_RULES, N_CLASSES, PointCloud
from forestseg.errors import InvalidLabel, ParseError
from forestseg.io import _CLOUD_TYPES, _check_unique, _is_number, _ply_header, _read_lines, _table_lines, _tsv_columns
from forestseg.merging import BlockPrediction


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
    lines = _read_lines(path)
    properties, n_vertices, data_start = _ply_header(path, iter(lines))
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
    columns, header = _tsv_columns(path, lines[0], linenos[0])
    skip = int(header)
    return _parse_cloud(path, lines[skip:], linenos[skip:], columns, "\t")


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
        cloud = reference_read_tsv(path) if "x" in header or any(map(_is_number, header)) else None
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
    fields = {"point_id": (0, int), "instance": (1, int)}
    if "semantic" in header:
        fields["semantic"] = (2, int)
    values = _parse_rows(path, lines[1:], linenos[1:], len(header), fields, "\t")
    n = len(lines) - 1
    seen = np.zeros(n, dtype=bool)
    for pid, lineno in zip(values["point_id"].tolist(), linenos[1:]):
        if not 0 <= pid < n:
            raise ParseError(f"{path}: line {lineno}: point_id {pid} outside 0..{n - 1}")
        if seen[pid]:
            raise ParseError(f"{path}: line {lineno}: duplicate point_id {pid}")
        seen[pid] = True
    for row, lineno in enumerate(linenos[1:]):
        if values["instance"][row] < 0:
            raise InvalidLabel(f"{path}: line {lineno}: {_LABEL_RULES['instance']}, got {values['instance'][row]}")
        if "semantic" in values and not 0 <= values["semantic"][row] < N_CLASSES:
            raise InvalidLabel(f"{path}: line {lineno}: {_LABEL_RULES['semantic']}, got {values['semantic'][row]}")
    # Every id in 0..n-1 appears exactly once, so this sorts the rows by point id.
    order = np.argsort(values["point_id"])
    return values["instance"][order], values["semantic"][order] if "semantic" in values else None


def reference_int_rows(columns: Sequence[npt.NDArray[np.int64]]) -> bytes:
    """The rows of ``columns`` as text: each value's ``str``, tab-joined, each row ended by a newline."""
    rows = map("\t".join, zip(*(map(str, c.tolist()) for c in columns), strict=True))
    return "".join(row + "\n" for row in rows).encode()


def reference_write_labels_tsv(path, instance, semantic=None) -> None:
    """Write per-point labels as tab-joined rows of each value's ``str``."""
    instance = np.asarray(instance, dtype=np.int64)
    columns = {"point_id": np.arange(len(instance)), "instance": instance}
    if semantic is not None:
        columns["semantic"] = np.asarray(semantic, dtype=np.int64)
    rows = map("\t".join, zip(*(map(str, c.tolist()) for c in columns.values()), strict=True))
    Path(path).write_text("\n".join(["\t".join(columns), *rows]) + "\n")


def reference_write_block_file(path, prediction: BlockPrediction) -> None:
    """Write one block's predictions as indented JSON, one value per line."""
    payload: dict = {
        "block_id": int(prediction.block_id),
        "masks": [{"query_index": int(m.query_index), "score": float(m.score), "point_ids": m.point_ids.tolist()}
                  for m in prediction.masks],
    }
    if prediction.semantic is not None:
        payload["semantic"] = {"point_ids": np.asarray(prediction.semantic[0], dtype=np.int64).tolist(),
                               "classes": np.asarray(prediction.semantic[1], dtype=np.int64).tolist()}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
