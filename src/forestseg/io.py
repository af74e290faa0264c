"""Readers and writers: ASCII PLY and TSV point clouds, label tables, and
per-block mask files.

Every point table goes through one row parser and one row formatter; the
formats differ only in their header and separator. Floats are written with
``repr`` so a read-back reproduces every value bit-exactly. The parser
converts a whole table in one vectorized ``np.loadtxt`` pass; only when that
pass rejects the rows does a loop parse them one by one, so parse failures
still raise :class:`ParseError` naming the file and the offending line.

Block files are written as compact JSON: one line, keys sorted, no spaces, so
Python's C encoder writes them. The reader accepts any JSON whitespace, so
indented files from older dumps or other writers load too. It converts no
value: ids must be JSON integers (not booleans) and coordinates and scores
JSON numbers, or the file is rejected.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from .core import PointCloud
from .errors import ParseError, ShapeMismatch
from .merging import BlockPrediction, InstanceMask

_SEMANTIC_KEYS = ("point_ids", "classes")  # a block file's per-point semantic votes
_FLOAT_PLY_TYPES = {"float", "float32", "double", "float64"}
_INT_PLY_TYPES = {"char", "uchar", "int8", "uint8", "short", "ushort", "int16", "uint16",
                  "int", "uint", "int32", "uint32", "int64", "uint64"}
# Cloud columns in their positional order, with the converter of each.
_CLOUD_TYPES = {"x": float, "y": float, "z": float, "semantic": int, "instance": int}


def _parse_rows(path: Path, lines: Sequence[str], linenos: Sequence[int], width: int,
                fields: dict[str, tuple[int, Callable]], sep: str | None,
                accept: Callable[[dict[str, npt.NDArray]], bool] = lambda values: True) -> dict[str, npt.NDArray]:
    """Parse rows of ``width`` ``sep``-separated values, found on file lines
    ``linenos``, into one array per field.

    ``fields`` maps a name to its column index and converter (``float`` ones
    fill float64 arrays, the rest int64). :func:`_load_rows` parses all rows
    at once; its arrays stand if ``accept`` passes them. Otherwise the row
    loop parses the rows again: it raises the :class:`ParseError` naming the
    line, or returns spellings only Python's converters read, such as ``1_0``.
    """
    values = _load_rows(lines, width, fields, sep)
    if values is None or not accept(values):
        values = _parse_row_by_row(path, lines, linenos, width, fields, sep)
    return values


def _load_rows(lines: Sequence[str], width: int, fields: dict[str, tuple[int, Callable]],
               sep: str | None) -> dict[str, npt.NDArray] | None:
    """:func:`_parse_rows` in one ``np.loadtxt`` pass, or None where it may differ from the row loop."""
    # numpy's integer parser passes any code point to C's isdigit: a non-ASCII
    # one may read as a digit (U+667CD as 419741) or crash the process.
    if not all(map(str.isascii, lines)):
        return None
    # Columns no field names are read as strings, so loadtxt still checks every row's width.
    dtype = [(f"_{i}", "U1") for i in range(width)]
    for name, (i, convert) in fields.items():
        dtype[i] = (name, np.float64 if convert is float else np.int64)
    try:
        # numpy 1.x parses "1.0" into an int column with only a DeprecationWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=dtype, delimiter=sep, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(table) != len(lines):  # loadtxt skips blank lines, which the row loop rejects
        return None
    return {name: np.ascontiguousarray(table[name]) for name in fields}


def _parse_row_by_row(path: Path, lines: Sequence[str], linenos: Sequence[int], width: int,
                      fields: dict[str, tuple[int, Callable]], sep: str | None) -> dict[str, npt.NDArray]:
    """:func:`_parse_rows` one row at a time: the converters run in ``fields``
    order on each row. A wrong value count, or a value a converter rejects or
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


def _check_unique(path: Path, lineno: int, names: list[str]) -> None:
    """Reject a header that names a column twice, so no reader has to pick one."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"{path}: line {lineno}: repeated column name {name!r}")


def _parse_cloud(path: Path, lines: Sequence[str], linenos: Sequence[int], columns: list[str],
                 sep: str | None) -> PointCloud:
    """Parse point rows whose columns are named ``columns`` (names are unique)."""
    col = {name: i for i, name in enumerate(columns)}
    fields = {name: (col[name], convert) for name, convert in _CLOUD_TYPES.items() if name in col}
    values = _parse_rows(path, lines, linenos, len(columns), fields, sep)
    return PointCloud(positions=np.column_stack([values["x"], values["y"], values["z"]]),
                      semantic=values.get("semantic"), instance=values.get("instance"))


def _write_rows(path, header: list[str], sep: str, columns: dict[str, npt.NDArray]) -> None:
    """Write the header lines, then the columns as ``sep``-joined rows (``str`` of a float is its ``repr``)."""
    rows = map(sep.join, zip(*(map(str, c.tolist()) for c in columns.values()), strict=True))
    Path(path).write_text("\n".join([*header, *rows]) + "\n")


def _cloud_columns(cloud: PointCloud) -> dict[str, npt.NDArray]:
    columns = {"x": cloud.positions[:, 0], "y": cloud.positions[:, 1], "z": cloud.positions[:, 2]}
    for name in ("semantic", "instance"):
        if getattr(cloud, name) is not None:
            columns[name] = getattr(cloud, name)
    return columns


def _table_lines(path: Path) -> tuple[list[str], list[int]]:
    """The non-blank lines of a TSV table, and their file line numbers."""
    lines = path.read_text().splitlines()
    linenos = [lineno for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    if not linenos:
        raise ParseError(f"{path}: empty file")
    return [lines[lineno - 1] for lineno in linenos], linenos


def read_ply(path) -> PointCloud:
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


def write_ply(path, cloud: PointCloud) -> None:
    columns = _cloud_columns(cloud)
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.n}"]
    header += [f"property {'double' if _CLOUD_TYPES[name] is float else 'int'} {name}" for name in columns]
    _write_rows(path, header + ["end_header"], " ", columns)


def read_tsv(path) -> PointCloud:
    """Read a TSV cloud with columns x y z [semantic] [instance].

    A header row is optional: a first row with a token that reads as a
    number is data, and the columns are then taken positionally in the order
    above.
    """
    path = Path(path)
    columns, lines, linenos = _tsv_columns(path, *_table_lines(path))
    return _parse_cloud(path, lines, linenos, columns, "\t")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _tsv_columns(path: Path, lines: list[str], linenos: list[int]) -> tuple[list[str], list[str], list[int]]:
    """A TSV cloud's column names, and its data lines with their file line numbers.

    The first line is a header when none of its tokens reads as a number;
    otherwise it is data, and the columns are x y z [semantic] [instance] by
    position, so a bad value there is reported as a bad value.
    """
    first, first_lineno = lines[0].split("\t"), linenos[0]
    if not any(map(_is_number, first)):
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
    return columns, lines, linenos


def write_tsv(path, cloud: PointCloud) -> None:
    columns = _cloud_columns(cloud)
    _write_rows(path, ["\t".join(columns)], "\t", columns)


def _by_extension(path, ply, tsv):
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return ply
    if suffix in (".tsv", ".txt"):
        return tsv
    raise ParseError(f"{path}: unsupported extension {suffix!r}, expected .ply or .tsv")


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply or .tsv/.txt."""
    return _by_extension(path, read_ply, read_tsv)(path)


def write_cloud(path, cloud: PointCloud) -> None:
    _by_extension(path, write_ply, write_tsv)(path, cloud)


def write_labels_tsv(path, instance, semantic=None) -> None:
    """Write final per-point labels: point_id, instance, and optional semantic."""
    instance = np.asarray(instance, dtype=np.int64)
    columns = {"point_id": np.arange(len(instance)), "instance": instance}
    if semantic is not None:
        columns["semantic"] = np.asarray(semantic, dtype=np.int64)
    _write_rows(path, ["\t".join(columns)], "\t", columns)


def read_labels_tsv(path) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64] | None]:
    """Read per-point labels from a label table or a labeled cloud TSV/PLY.

    Returns ``(instance, semantic)`` ordered by point id; semantic is None
    when the file carries none.
    """
    path = Path(path)
    if path.suffix.lower() == ".ply":
        cloud = read_ply(path)
    else:
        lines, linenos = _table_lines(path)
        header = [tok.strip() for tok in lines[0].split("\t")]
        cloud = read_tsv(path) if "x" in header else None
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

    def each_id_once(values: dict[str, npt.NDArray]) -> bool:
        ids = values["point_id"]
        if not np.all((ids >= 0) & (ids < n)):
            return False
        hit = np.zeros(n, dtype=bool)
        hit[ids] = True
        return bool(hit.all())  # n ids cover 0..n-1 only if none repeats

    fields = {"point_id": (0, point_id), "instance": (1, int)}
    if "semantic" in header:
        fields["semantic"] = (2, int)
    values = _parse_rows(path, lines[1:], linenos[1:], len(header), fields, "\t", accept=each_id_once)
    # The ids are a permutation of 0..n-1; scattering row numbers by id inverts it.
    order = np.empty(n, dtype=np.int64)
    order[values["point_id"]] = np.arange(n)
    return values["instance"][order], values["semantic"][order] if "semantic" in values else None


def write_block_file(path, prediction: BlockPrediction) -> None:
    """Write one block's predictions as compact JSON: one line, keys sorted, no spaces.

    Without ``indent``, ``json.dumps`` runs Python's C encoder; indented
    output would put every point id on its own line through the pure-Python one.
    """
    payload: dict = {
        "block_id": int(prediction.block_id),
        "center": [float(prediction.center_xy[0]), float(prediction.center_xy[1])],
        "radius": float(prediction.radius),
        "masks": [{"query_index": int(m.query_index), "score": float(m.score), "point_ids": m.point_ids.tolist()}
                  for m in prediction.masks],
    }
    if prediction.semantic is not None:
        payload["semantic"] = {key: np.asarray(values, dtype=np.int64).tolist()
                               for key, values in zip(_SEMANTIC_KEYS, prediction.semantic)}
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_block_file(path) -> BlockPrediction:
    """Read one block's predictions, as :func:`write_block_file` writes them.

    Any JSON whitespace reads back, so indented files load too.
    ``query_index`` defaults to a mask's position and ``semantic`` is
    optional. Values are not converted: ``block_id`` and ``query_index`` must
    be JSON integers, ``center``, ``radius`` and ``score`` JSON numbers, and
    each id or class list a flat list of integers that fit int64 (booleans
    count as none of these); otherwise :class:`ParseError` is raised.
    """
    path = Path(path)
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    # np.asarray reads [true, 2] as [1, 2]; only a file that spells a boolean can hold one.
    may_hold_booleans = "true" in text or "false" in text

    def malformed(message: str) -> ParseError:
        return ParseError(f"{path}: malformed block file: {message}")

    def integer(value, what: str) -> int:
        if type(value) is not int:  # bool is a subclass of int
            raise malformed(f"{what} must be an integer, got {value!r}")
        return value

    def number(value, what: str) -> float:
        if type(value) not in (int, float):
            raise malformed(f"{what} must be a number, got {value!r}")
        return float(value)

    def integer_array(values, what: str) -> npt.NDArray[np.int64]:
        array = np.asarray(values)
        if (array.ndim != 1 or (array.size and array.dtype.kind != "i")
                or (may_hold_booleans and bool in map(type, values))):
            raise malformed(f"{what} must be a flat list of integers that fit int64")
        return array.astype(np.int64, copy=False)

    def mask(m: dict, qi: int, block_id: int) -> InstanceMask:
        point_ids = integer_array(m["point_ids"], f"masks[{qi}].point_ids")
        score = number(m["score"], f"masks[{qi}].score")
        query_index = integer(m.get("query_index", qi), f"masks[{qi}].query_index")
        try:
            return InstanceMask(point_ids=point_ids, score=score, block_id=block_id, query_index=query_index)
        except ShapeMismatch as exc:  # the mask's own range checks
            raise malformed(f"masks[{qi}]: {exc}") from None

    try:
        block_id = integer(payload["block_id"], "block_id")
        center_xy = (number(payload["center"][0], "center"), number(payload["center"][1], "center"))
        radius = number(payload["radius"], "radius")
        masks = [mask(m, qi, block_id) for qi, m in enumerate(payload["masks"])]
        semantic = None
        if "semantic" in payload:
            semantic = tuple(integer_array(payload["semantic"][key], f"semantic.{key}") for key in _SEMANTIC_KEYS)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise malformed(repr(exc)) from None
    # The boundary test squares the radius; NaN would silently drop every mask.
    if not (math.isfinite(center_xy[0]) and math.isfinite(center_xy[1]) and radius > 0
            and math.isfinite(radius * radius)):
        raise ParseError(f"{path}: block center must be finite and radius positive with a finite square, "
                         f"got center {list(center_xy)} and radius {radius}")
    return BlockPrediction(block_id=block_id, center_xy=center_xy, radius=radius, masks=masks, semantic=semantic)


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
