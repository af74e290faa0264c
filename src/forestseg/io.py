"""Readers and writers: ASCII PLY and TSV point clouds, label tables, and
per-block mask files.

Every point table goes through one row parser. Clouds are written by one row
formatter, the formats differing only in their header and separator; floats
are written with ``repr`` so a read-back reproduces every value bit-exactly.
Label tables hold only integers, and one vectorized kernel formats them: each
column's digits fill a right-aligned byte matrix, so no value becomes a
Python string. Read back, a label table's values are checked as a cloud's
labels are: instance ids >= 0, semantic classes 0, 1 or 2. A reader opens
its file once as UTF-8 text (an undecodable byte kept as a lone surrogate) and
streams its rows into one ``np.loadtxt`` pass, holding no whole text or line
list. Where that pass may differ from the row loop, the file is read again as
lines for the loop, whose :class:`ParseError` names the file and line. A label
table's ids are checked after the parse: a bad token anywhere comes before an
id outside 0..n-1 or repeated, and that before a label outside its domain.

Block files are written as compact JSON: one line, keys sorted, no spaces, so
Python's C encoder writes them. The reader accepts any JSON whitespace, so
indented files from older dumps or other writers load too. It converts no
value: ids must be JSON integers (not booleans) and scores JSON numbers, or
the file is rejected. A block file holds no footprint: the merge derives it
from the block id, so the ``center`` and ``radius`` of older dumps are ignored.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import warnings
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np
import numpy.typing as npt

from .core import _LABEL_RULES, N_CLASSES, PointCloud, _as_labels
from .errors import InputDataError, InvalidLabel, ParseError, ShapeMismatch
from .merging import BlockPrediction, InstanceMask

_SEMANTIC_KEYS = ("point_ids", "classes")  # a block file's per-point semantic votes
_FLOAT_PLY_TYPES = {"float", "float32", "double", "float64"}
_INT_PLY_TYPES = {"char", "uchar", "int8", "uint8", "short", "ushort", "int16", "uint16",
                  "int", "uint", "int32", "uint32", "int64", "uint64"}
_WRITE_CHUNK_ROWS = 16384  # rows a table writer formats at a time, not the whole file
# Cloud columns in their positional order, with the converter of each.
_CLOUD_TYPES = {"x": float, "y": float, "z": float, "semantic": int, "instance": int}


def _load_rows(lines: Iterable[str], width: int, fields: dict[str, tuple[int, Callable]],
               sep: str | None) -> dict[str, npt.NDArray] | None:
    """Parse ``lines``, each a row of ``width`` ``sep``-separated values, in one
    ``np.loadtxt`` pass as they stream in, into one array per field (views of
    one table); or None where the result may differ from :func:`_parse_row_by_row`'s.

    ``fields`` maps a name to its column index and converter (``float`` ones
    fill float64 arrays, the rest int64). Where this declines, the file is read
    again as lines for the row loop: it raises the :class:`ParseError` naming
    the line, or returns spellings only Python's converters read, such as ``1_0``.
    """
    # numpy's integer parser passes any code point to C's isdigit: a non-ASCII one may read as a digit
    # (U+667CD as 419741) or crash the process. filter drops such a line, and the row count below misses it.
    n_lines = itertools.count()  # zip takes a line before a count: once the lines run out, next() is their number
    ascii_lines = filter(str.isascii, (line for line, _ in zip(lines, n_lines)))
    # Columns no field names are read as strings, so loadtxt still checks every row's width.
    dtype = [(f"_{i}", "U1") for i in range(width)]
    for name, (i, convert) in fields.items():
        dtype[i] = (name, np.float64 if convert is float else np.int64)
    try:
        # numpy 1.x parses "1.0" into an int column with only a DeprecationWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(ascii_lines, dtype=dtype, delimiter=sep, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(table) != next(n_lines):  # a line dropped, or a blank one loadtxt skipped, which the row loop rejects
        return None
    return {name: table[name] for name in fields}


def _parse_row_by_row(path: Path, lines: Sequence[str], linenos: Sequence[int], width: int,
                      fields: dict[str, tuple[int, Callable]], sep: str | None) -> dict[str, npt.NDArray]:
    """:func:`_load_rows` one row at a time, rows ``lines`` found on file lines ``linenos``: the converters run in
    ``fields`` order on each row. A wrong value count, or a value a converter rejects or its array cannot hold,
    raises :class:`ParseError` naming the line."""
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


def _cloud_fields(columns: list[str]) -> dict[str, tuple[int, Callable]]:
    """The parse fields of a cloud whose columns are named ``columns`` (names are unique)."""
    return {name: (columns.index(name), convert) for name, convert in _CLOUD_TYPES.items() if name in columns}


def _cloud(values: dict[str, npt.NDArray]) -> PointCloud:
    positions = np.column_stack([values["x"], values["y"], values["z"]])
    labels = {name: values[name].copy() for name in ("semantic", "instance") if name in values}
    values.clear()  # copied out, the parse's table is freed before the cloud's checks
    return PointCloud(positions=positions, **labels)


def _write_rows(path, header: list[str], sep: str, columns: dict[str, npt.NDArray]) -> None:
    """Write the header lines, then the columns as ``sep``-joined rows (``str`` of a float is its ``repr``)."""
    with _open_output(path, "w") as f:
        f.write("\n".join(header) + "\n")
        for start in range(0, len(columns["x"]), _WRITE_CHUNK_ROWS):
            chunk = (map(str, c[start:start + _WRITE_CHUNK_ROWS].tolist()) for c in columns.values())
            f.write("\n".join(map(sep.join, zip(*chunk, strict=True))) + "\n")


def _int_rows(columns: Sequence[npt.NDArray[np.int64]]) -> bytes:
    """The rows of ``columns`` (1-D int64 arrays of one length) as ASCII text:
    each value as ``str`` spells it, tab-separated, every row ended by a newline.

    Each column takes a right-aligned slot in one uint8 matrix, as wide as its
    widest value, filled one digit place per floor division by ten. Signs,
    tabs and newlines are placed by index, and one boolean compress drops the
    slots' left padding.
    """
    n = len(columns[0])
    laid_out = []
    for values in columns:
        negative = values < 0
        # uint64 magnitudes: two's-complement negation is exact for every int64, -2**63 included.
        magnitude = values.astype(np.uint64)
        np.negative(magnitude, out=magnitude, where=negative)
        laid_out.append((magnitude, negative, len(str(magnitude.max())) if n else 1, bool(negative.any())))
    table = np.empty((n, sum(n_digits + signed + 1 for *_, n_digits, signed in laid_out)), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    end = 0
    for i, (rest, negative, n_digits, signed) in enumerate(laid_out):
        lead, end = end + signed, end + signed + n_digits  # the column's digit places are lead..end-1
        for place in range(end - 1, lead - 1, -1):
            quotient = rest // 10
            np.subtract(rest, quotient * 10, out=table[:, place], casting="unsafe")
            table[:, place] += ord("0")
            if place < end - 1:
                np.not_equal(rest, 0, out=keep[:, place])  # a zero left of the leading digit is padding
            rest = quotient
        if signed:
            keep[:, lead - 1] = False
            rows = np.flatnonzero(negative)
            sign = lead - 1 + np.argmax(keep[rows, lead:end], axis=1)  # just left of each leading digit
            table[rows, sign] = ord("-")
            keep[rows, sign] = True
        table[:, end] = ord("\n" if i == len(laid_out) - 1 else "\t")
        end += 1
    return table[keep].tobytes()


def _cloud_columns(cloud: PointCloud) -> dict[str, npt.NDArray]:
    columns = {"x": cloud.positions[:, 0], "y": cloud.positions[:, 1], "z": cloud.positions[:, 2]}
    for name in ("semantic", "instance"):
        if getattr(cloud, name) is not None:
            columns[name] = getattr(cloud, name)
    return columns


@contextlib.contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """The file open as UTF-8 text, an undecodable byte kept as a lone surrogate; an unreadable file is a ParseError.
    Each line end ("\\r\\n", "\\r" or "\\n") reads as "\\n", and only that ends a line, not a form feed."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            yield f
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _open_output(path, mode: str) -> Iterator[IO]:
    """The file open for writing in ``mode``; an error the OS raises on opening or writing it, such as a name too
    long, is an InputDataError naming it."""
    try:
        with open(path, mode) as f:
            yield f
    except OSError as exc:
        raise InputDataError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _read_lines(path: Path) -> list[str]:
    """The file's lines, without their line ends; a final "\\n" ends a line and starts none."""
    with _open_text(path) as f:
        text = f.read()
    return text.removesuffix("\n").split("\n") if text else []


def _table_lines(path: Path) -> tuple[list[str], list[int]]:
    """The non-blank lines of a TSV table, and their file line numbers: read again, for an error's line number."""
    lines = _read_lines(path)
    linenos = [lineno for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    if not linenos:
        raise ParseError(f"{path}: empty file")
    return [lines[lineno - 1] for lineno in linenos], linenos


def _ply_header(path: Path, lines: Iterator[str]) -> tuple[list[str], int, int]:
    """The vertex property names, vertex count and ``end_header`` line number of a PLY header with one
    ``format ascii 1.0`` and one ``element vertex`` line, taking the file's ``lines`` up to ``end_header``."""
    first = next(lines, None)
    if first is None or first.strip() != "ply":
        raise ParseError(f"{path}: line 1: expected 'ply' magic, got {first!r}" if first is not None
                         else f"{path}: empty file")
    keywords: set[str] = set()
    n_vertices = None
    properties: list[str] = []
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if line.startswith("comment") or not line:
            continue
        if line == "end_header":
            break
        tokens = line.split()
        if tokens[0] in keywords and tokens[0] != "property":
            raise ParseError(f"{path}: line {lineno}: a second {tokens[0]} line {line!r}")
        keywords.add(tokens[0])
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
    else:
        raise ParseError(f"{path}: missing end_header")
    if "format" not in keywords:
        raise ParseError(f"{path}: line {lineno}: header has no 'format ascii 1.0' line")
    if n_vertices is None:
        raise ParseError(f"{path}: header declares no vertex element")
    for req in ("x", "y", "z"):
        if req not in properties:
            raise ParseError(f"{path}: header lacks required property {req!r}")
    return properties, n_vertices, lineno


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY with properties x, y, z and optional semantic, instance."""
    path = Path(path)
    with _open_text(path) as f:
        properties, n_vertices, data_start = _ply_header(path, (line.removesuffix("\n") for line in f))
        fields = _cloud_fields(properties)
        values = _load_rows(itertools.islice(f, n_vertices), len(properties), fields, None)
        if values is not None and len(values["x"]) == n_vertices and not any(map(str.strip, f)):
            return _cloud(values)
    # Otherwise the row loop, on the file read again as lines, names the faulty line.
    lines = _read_lines(path)[data_start:]
    if len(lines) < n_vertices:
        raise ParseError(f"{path}: header declares {n_vertices} vertices but only {len(lines)} data lines follow")
    cloud = _cloud(_parse_row_by_row(path, lines[:n_vertices], range(data_start + 1, data_start + 1 + n_vertices),
                                     len(properties), fields, None))
    for lineno, raw in enumerate(lines[n_vertices:], start=data_start + 1 + n_vertices):
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
    with _open_text(path) as f:
        return _tsv_cloud(path, f, *_first_line(path, f))


def _first_line(path: Path, f: TextIO) -> tuple[str, int]:
    """A TSV table's first non-blank line, without its "\\n", and its line number; ``f`` is read through it."""
    for lineno, line in enumerate(f, start=1):
        if line.strip():
            return line.removesuffix("\n"), lineno
    raise ParseError(f"{path}: empty file")


def _table_rows(path: Path, rows: Iterable[str], skip: int, width: int, fields: dict) -> dict[str, npt.NDArray]:
    """Parse ``rows``, a TSV table's lines after its first ``skip`` non-blank ones, blank lines skipped."""
    values = _load_rows(filter(str.strip, rows), width, fields, "\t")
    if values is None:  # the row loop, on the file read again as lines, names the faulty line
        lines, linenos = _table_lines(path)
        values = _parse_row_by_row(path, lines[skip:], linenos[skip:], width, fields, "\t")
    return values


def _tsv_cloud(path: Path, f: TextIO, first: str, lineno: int) -> PointCloud:
    """The cloud of a TSV table whose first non-blank line ``first``, file line ``lineno``, ``f`` is read through."""
    columns, header = _tsv_columns(path, first, lineno)
    rows = f if header else itertools.chain([first], f)
    return _cloud(_table_rows(path, rows, int(header), len(columns), _cloud_fields(columns)))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _tsv_columns(path: Path, first: str, first_lineno: int) -> tuple[list[str], bool]:
    """A TSV cloud's column names, and whether its first non-blank line ``first`` is a header.

    The first line is a header when none of its tokens reads as a number;
    otherwise it is data, and the columns are x y z [semantic] [instance] by
    position, so a bad value there is reported as a bad value.
    """
    tokens = first.split("\t")
    header = not any(map(_is_number, tokens))
    if header:
        columns = [tok.strip() for tok in tokens]
        for name in columns:
            if name not in _CLOUD_TYPES:
                raise ParseError(f"{path}: line {first_lineno}: unknown column {name!r}")
        _check_unique(path, first_lineno, columns)
    else:
        columns = list(_CLOUD_TYPES)[: len(tokens)]
    for req in ("x", "y", "z"):
        if req not in columns:
            raise ParseError(f"{path}: line {first_lineno}: missing required column {req!r}")
    return columns, header


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
    """Write final per-point labels: point_id, instance, and optional semantic.

    ``instance`` must be 1-D and ``semantic`` of its length, or
    :class:`ShapeMismatch` is raised before anything is written.
    """
    instance = np.asarray(instance, dtype=np.int64)
    if instance.ndim != 1:
        raise ShapeMismatch(f"instance must be 1-D, got shape {instance.shape}")
    columns = {"point_id": np.arange(len(instance), dtype=np.int64), "instance": instance}
    if semantic is not None:
        columns["semantic"] = _as_labels(semantic, "semantic", len(instance))
    with _open_output(path, "wb") as f:
        f.write(("\t".join(columns) + "\n").encode())
        for start in range(0, len(instance), _WRITE_CHUNK_ROWS):
            f.write(_int_rows([c[start:start + _WRITE_CHUNK_ROWS] for c in columns.values()]))


def read_labels_tsv(path) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int64] | None]:
    """Read per-point labels from a label table or a labeled cloud TSV/PLY.

    Returns ``(instance, semantic)`` ordered by point id; semantic is None
    when the file carries none.
    """
    path = Path(path)
    cloud = read_ply(path) if path.suffix.lower() == ".ply" else None
    if cloud is None:
        with _open_text(path) as f:
            first, first_lineno = _first_line(path, f)
            header = [tok.strip() for tok in first.split("\t")]
            if "x" in header or any(map(_is_number, header)):  # a first row holding a number is data, as in read_tsv
                cloud = _tsv_cloud(path, f, first, first_lineno)
            else:
                if header[:2] != ["point_id", "instance"]:
                    raise ParseError(f"{path}: line {first_lineno}: expected columns starting "
                                     f"'point_id\\tinstance', got {first!r}")
                _check_unique(path, first_lineno, header)
                for name in header[2:]:
                    if name != "semantic":
                        raise ParseError(f"{path}: line {first_lineno}: unknown column {name!r}")
                fields = {name: (i, int) for i, name in enumerate(header)}  # point_id, instance [, semantic]
                values = _table_rows(path, f, 1, len(header), fields)
    if cloud is not None:
        if cloud.instance is None:
            raise ParseError(f"{path}: no instance labels present")
        return cloud.instance, cloud.semantic
    # The ids must be 0..n-1, each once.
    ids = values["point_id"]
    n = len(ids)
    if n and not (ids.min() >= 0 and ids.max() < n and np.bincount(ids, minlength=n).all()):
        outside = (ids < 0) | (ids >= n)
        repeat = np.ones(n, dtype=bool)
        repeat[np.unique(ids, return_index=True)[1]] = False  # each id's first row is no repeat
        row = int(np.argmax(outside | repeat))
        fault = f"point_id {ids[row]} outside 0..{n - 1}" if outside[row] else f"duplicate point_id {ids[row]}"
        raise ParseError(f"{path}: line {_table_lines(path)[1][row + 1]}: {fault}")
    # A cloud's label domains. There is no tree/ground cross-check: a noisy mask may give a ground point a tree id.
    invalid = {"instance": values["instance"] < 0}
    if "semantic" in values:
        invalid["semantic"] = (values["semantic"] < 0) | (values["semantic"] >= N_CLASSES)
    rows = np.flatnonzero(np.any(list(invalid.values()), axis=0))
    if len(rows):
        name = next(name for name, bad in invalid.items() if bad[rows[0]])
        lineno = _table_lines(path)[1][rows[0] + 1]
        raise InvalidLabel(f"{path}: line {lineno}: {_LABEL_RULES[name]}, got {values[name][rows[0]]}")
    by_id = {name: np.empty(n, dtype=np.int64) for name in ("instance", "semantic") if name in values}
    for name, column in by_id.items():
        column[ids] = values[name]  # the ids are a permutation: this orders the rows by point id
    return by_id["instance"], by_id.get("semantic")


def write_block_file(path, prediction: BlockPrediction) -> None:
    """Write one block's predictions as compact JSON: one line, keys sorted, no spaces.

    Without ``indent``, ``json.dumps`` runs Python's C encoder; indented
    output would put every point id on its own line through the pure-Python one.
    """
    payload: dict = {
        "block_id": int(prediction.block_id),
        "masks": [{"query_index": int(m.query_index), "score": float(m.score), "point_ids": m.point_ids.tolist()}
                  for m in prediction.masks],
    }
    if prediction.semantic is not None:
        payload["semantic"] = {key: np.asarray(values, dtype=np.int64).tolist()
                               for key, values in zip(_SEMANTIC_KEYS, prediction.semantic)}
    with _open_output(path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_block_file(path) -> BlockPrediction:
    """Read one block's predictions, as :func:`write_block_file` writes them.

    Any JSON whitespace reads back, so indented files load too.
    ``query_index`` defaults to a mask's position and ``semantic`` is
    optional. Values are not converted: ``block_id`` and ``query_index`` must
    be JSON integers, ``score`` a JSON number, and each id or class list a
    flat list of integers that fit int64 (booleans count as none of these);
    otherwise :class:`ParseError` is raised. Other keys, such as the
    ``center`` and ``radius`` older dumps wrote, are ignored.
    """
    path = Path(path)
    with _open_text(path) as f:
        text = f.read()
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

    def integer_array(values, what: str) -> npt.NDArray[np.int64]:
        array = np.asarray(values)
        if (array.ndim != 1 or (array.size and array.dtype.kind != "i")
                or (may_hold_booleans and bool in map(type, values))):
            raise malformed(f"{what} must be a flat list of integers that fit int64")
        return array.astype(np.int64, copy=False)

    def mask(m: dict, qi: int, block_id: int) -> InstanceMask:
        point_ids = integer_array(m["point_ids"], f"masks[{qi}].point_ids")
        score = m["score"]
        if type(score) not in (int, float):
            raise malformed(f"masks[{qi}].score must be a number, got {score!r}")
        query_index = integer(m.get("query_index", qi), f"masks[{qi}].query_index")
        try:
            return InstanceMask(point_ids=point_ids, score=float(score), block_id=block_id, query_index=query_index)
        except ShapeMismatch as exc:  # the mask's own range checks
            raise malformed(f"masks[{qi}]: {exc}") from None

    try:
        block_id = integer(payload["block_id"], "block_id")
        masks = [mask(m, qi, block_id) for qi, m in enumerate(payload["masks"])]
        semantic = None
        if "semantic" in payload:
            semantic = tuple(integer_array(payload["semantic"][key], f"semantic.{key}") for key in _SEMANTIC_KEYS)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise malformed(repr(exc)) from None
    return BlockPrediction(block_id=block_id, masks=masks, semantic=semantic)


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation."""
    with _open_output(path, "w") as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
