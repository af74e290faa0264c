"""Readers and writers: PLY and TSV point clouds, label tables, and per-block
mask files.

A PLY is read in any of the three encodings of the PLY format (Turk, *The PLY
Polygon File Format*, 1994): ``ascii``, ``binary_little_endian`` and
``binary_big_endian``, and written as binary little-endian. One function
parses the header, whatever the encoding, and one table maps each property type
to its numpy type, for the header's checks and a binary row's layout alike. A
binary body is mapped read-only, one structured row per vertex; the cloud's
columns are copied out of the map, so no text is parsed and the file is not
held in memory. A text body goes through the row parser below.

Every text point table goes through one row parser. A TSV cloud is written by
one row formatter; floats are written with ``repr`` so a read-back reproduces
every value bit-exactly, as a binary PLY's float64 columns do. Label tables
hold only integers, and one vectorized kernel formats them: each column's
digits fill a right-aligned byte matrix, so no value becomes a Python string.
A label table is not written under a ``.ply`` name, which the reader would
take for a PLY cloud. Read back, a label table's values are checked as a
cloud's labels are: instance ids >= 0, semantic classes 0, 1 or 2. A text
reader opens its file once as UTF-8 text (an undecodable byte kept as a lone
surrogate) and streams its rows into one ``np.loadtxt`` pass, holding no
whole text or line list.
Where that pass may differ from the row loop, the file is read again as lines
for the loop, whose :class:`ParseError` names the file and line. A label
table's ids are checked after the parse: a bad token anywhere comes before an
id outside 0..n-1 or repeated, and that before a label outside its domain.

Block files are written as uncompressed ``.npz`` archives, one array per
field, from a block's packed masks as they are held: the masks' ids
concatenated into one ``point_ids`` array and cut apart again by
``mask_sizes``, so no id becomes text, and each integer field in int32 where
its values fit. The reader loads them with pickles refused and checks each
field's rank and dtype kind; integer fields go through the merge's own id
check, which rejects what an int64 cast would truncate or wrap, and the
arrays become one :class:`~forestseg.merging.BlockMasks` as they are. JSON
block files, as older dumps and other writers made them, are still read but
no longer written. The JSON reader accepts any JSON whitespace and converts
no value: ids must be JSON integers (not booleans) and scores JSON numbers,
or the file is rejected. Its masks are checked one by one, so the first
fault in file order is the one named, and packed once. A block file holds
no footprint: the merge derives it from the block id, so the ``center`` and
``radius`` of older JSON dumps are ignored.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import warnings
import zipfile
import zlib
from io import TextIOWrapper
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np
import numpy.typing as npt

from .core import _LABEL_RULES, N_CLASSES, PointCloud, _as_labels, _int64_ids
from .errors import ConfigError, InputDataError, InvalidLabel, ParseError, ShapeMismatch
from .merging import BlockMasks, BlockPrediction

_SEMANTIC_KEYS = ("point_ids", "classes")  # a block file's per-point semantic votes
# A block file's .npz fields -> each one's rank; the last two, a block's semantic votes, are both there or neither.
_NPZ_FIELDS = {"block_id": 0, "query_index": 1, "mask_sizes": 1, "score": 1, "point_ids": 1,
               **{f"semantic_{key}": 1 for key in _SEMANTIC_KEYS}}
# What np.load and its lazy archive raise for a file that is not a well-formed .npz of plain arrays.
_NPZ_FAULTS = (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile, zlib.error, NotImplementedError)
# PLY property types, the format's names and their sized aliases, as numpy type codes without a byte order.
_PLY_TYPES = {"char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1", "short": "i2", "int16": "i2",
              "ushort": "u2", "uint16": "u2", "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
              "int64": "i8", "uint64": "u8", "float": "f4", "float32": "f4", "double": "f8", "float64": "f8"}
# A PLY's encoding -> the byte order of its binary rows; None for text rows.
_PLY_FORMATS = {"ascii": None, "binary_little_endian": "<", "binary_big_endian": ">"}
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
    """The cloud of parsed or mapped columns, copied out as float64 positions and int64 labels."""
    positions = np.empty((len(values["x"]), 3))
    for i, name in enumerate("xyz"):
        positions[:, i] = values[name]
    labels = {name: values[name].astype(np.int64) for name in ("semantic", "instance") if name in values}
    values.clear()  # copied out, the parse's table or the file's map is freed before the cloud's checks
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
def _open_input(path: Path) -> Iterator[BinaryIO]:
    """The file open for reading bytes; an unreadable file is a ParseError."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _text(f: BinaryIO, newline: str | None = None) -> TextIO:
    """``f`` read as UTF-8 text, an undecodable byte kept as a lone surrogate. Each line end ("\\r\\n", "\\r" or
    "\\n") reads as "\\n", or as itself with ``newline=""``, and only that ends a line, not a form feed."""
    return TextIOWrapper(f, encoding="utf-8", errors="surrogateescape", newline=newline)


@contextlib.contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """The file open as :func:`_text`; an unreadable file is a ParseError."""
    with _open_input(path) as f:
        yield _text(f)


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


class _PlyHeader(NamedTuple):
    properties: dict[str, str]  # vertex property name -> its PLY type, in row order
    n_vertices: int
    end: int  # the end_header line's number
    byte_order: str | None  # "<" or ">" for binary rows, None for text rows


def _ply_header(path: Path, lines: Iterator[str]) -> _PlyHeader:
    """The header of a PLY with one ``format`` line and one ``element vertex`` line, taking the file's ``lines``
    (without their line ends) up to ``end_header``. Another element may be declared if it holds no rows, as a
    mesh's ``element face 0``: its property lines are checked and skipped. ``obj_info`` lines are comments."""
    first = next(lines, None)
    if first is None or first.strip() != "ply":
        raise ParseError(f"{path}: line 1: expected 'ply' magic, got {first!r}" if first is not None
                         else f"{path}: empty file")
    encoding = None
    n_vertices = None
    in_vertex = None  # whether the last element line declared the vertex element; None before the first
    properties: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if line.startswith(("comment", "obj_info")) or not line:
            continue
        if line == "end_header":
            break
        tokens = line.split()
        if tokens[0] == "format":
            if encoding is not None:
                raise ParseError(f"{path}: line {lineno}: a second format line {line!r}")
            if len(tokens) != 3 or tokens[1] not in _PLY_FORMATS or tokens[2] != "1.0":
                raise ParseError(f"{path}: line {lineno}: unsupported format {line!r}, expected "
                                 f"{' or '.join(repr(f'format {name} 1.0') for name in _PLY_FORMATS)}")
            encoding = tokens[1]
        elif tokens[0] == "element":
            try:
                count = int(tokens[2])
                if count < 0:
                    raise ValueError
            except (IndexError, ValueError):
                raise ParseError(f"{path}: line {lineno}: bad element count in {line!r}") from None
            in_vertex = tokens[1] == "vertex"
            if count == 0 and not in_vertex:
                continue
            if n_vertices is not None:
                raise ParseError(f"{path}: line {lineno}: a second element line {line!r}")
            if not in_vertex:
                raise ParseError(f"{path}: line {lineno}: unsupported element {tokens[1]!r}")
            n_vertices = count
        elif tokens[0] == "property":
            if in_vertex is None:
                raise ParseError(f"{path}: line {lineno}: property outside vertex element")
            # "property TYPE NAME"; a list ("property list COUNT_TYPE TYPE NAME") only in an element without rows
            if not (len(tokens) == 3 or (not in_vertex and len(tokens) == 5 and tokens[1] == "list")):
                raise ParseError(f"{path}: line {lineno}: malformed property {line!r}")
            for ptype in tokens[-3:-1] if len(tokens) == 5 else tokens[1:2]:
                if ptype not in _PLY_TYPES:
                    raise ParseError(f"{path}: line {lineno}: unknown property type {ptype!r}")
            if not in_vertex:
                continue
            ptype, pname = tokens[1], tokens[2]
            if pname in ("x", "y", "z") and _PLY_TYPES[ptype][0] != "f":
                raise ParseError(f"{path}: line {lineno}: {pname} must be a float type, got {ptype!r}")
            if pname in ("semantic", "instance") and _PLY_TYPES[ptype][0] == "f":
                raise ParseError(f"{path}: line {lineno}: {pname} must be an integer type, got {ptype!r}")
            _check_unique(path, lineno, [*properties, pname])
            properties[pname] = ptype
        else:
            raise ParseError(f"{path}: line {lineno}: unexpected header line {line!r}")
    else:
        raise ParseError(f"{path}: missing end_header")
    if encoding is None:
        raise ParseError(f"{path}: line {lineno}: header has no 'format' line")
    if n_vertices is None:
        raise ParseError(f"{path}: header declares no vertex element")
    for req in ("x", "y", "z"):
        if req not in properties:
            raise ParseError(f"{path}: header lacks required property {req!r}")
    return _PlyHeader(properties, n_vertices, lineno, _PLY_FORMATS[encoding])


def _read_ply_header(path: Path, f: BinaryIO) -> tuple[_PlyHeader, int]:
    """The header of the PLY open as ``f``, and its length in bytes.

    The header is decoded as any text input is, and each line it takes is encoded back to count its bytes: a
    byte that does not decode is held as a lone surrogate, which encodes to that byte again. A text reader
    takes "\r\n" as one line end, so in a file whose header lines end in a lone "\r", a binary body starting
    with byte 0x0A would join ``end_header``'s line end: there, that line ends at its "\r".
    """
    text = _text(f, newline="")  # each line keeps its own line end, so its bytes can be counted
    length = 0
    ends = ["", ""]  # the line ends of the last two lines taken

    def lines() -> Iterator[str]:
        nonlocal length
        for line in text:
            length += len(line.encode("utf-8", "surrogateescape"))
            content = line.removesuffix("\n").removesuffix("\r")
            ends[:] = ends[1], line[len(content):]
            yield content

    try:
        header = _ply_header(path, lines())
    finally:
        text.detach()  # leaves f open
    if header.byte_order is not None and ends == ["\r", "\r\n"]:
        length -= 1  # the "\n" is the body's first byte
    return header, length


def _check_label_ranges(path: Path, values: dict[str, npt.NDArray], header: _PlyHeader,
                        row_name: Callable[[int], str]) -> None:
    """Reject a label outside both its declared PLY type's range and int64's, naming its row by ``row_name``.

    No binary column but ``uint64`` holds such a value; a text one may spell any. A column whose dtype holds
    nothing outside the range is not scanned.
    """
    first = None  # (row, name, low, high) of the first label outside its range
    for name in ("semantic", "instance"):
        if name in values:
            declared, held = np.iinfo(_PLY_TYPES[header.properties[name]]), np.iinfo(values[name].dtype)
            low, high = max(declared.min, -2**63), min(declared.max, 2**63 - 1)
            if low > held.min or high < held.max:
                rows = np.flatnonzero((values[name] < low) | (values[name] > high))
                if rows.size and (first is None or rows[0] < first[0]):
                    first = int(rows[0]), name, low, high
    if first is not None:
        row, name, low, high = first
        raise ParseError(f"{path}: {row_name(row)}: {name} {values[name][row]} is outside {low}..{high}, "
                         f"the values {header.properties[name]} labels may take")


def _binary_rows(path: Path, f: BinaryIO, header: _PlyHeader, offset: int) -> dict[str, npt.NDArray]:
    """The cloud's columns of the binary PLY open as ``f``, whose header takes ``offset`` bytes: views of a
    read-only map of its rows, in the file's types and byte order.

    The rows must fill the rest of the file exactly. Properties the cloud does not hold are left out of the
    row type as padding. ``np.memmap`` refuses an empty map, so no rows map nothing.
    """
    names, formats, offsets, itemsize = [], [], [], 0
    for name, ptype in header.properties.items():
        if name in _CLOUD_TYPES:
            names.append(name)
            formats.append(header.byte_order + _PLY_TYPES[ptype])
            offsets.append(itemsize)
        itemsize += int(_PLY_TYPES[ptype][1:])
    expected, size = offset + header.n_vertices * itemsize, os.fstat(f.fileno()).st_size
    if size != expected:
        raise ParseError(f"{path}: a {offset}-byte header and {header.n_vertices} vertices of {itemsize} bytes "
                         f"take {expected} bytes, but the file holds {size}")
    dtype = np.dtype({"names": names, "formats": formats, "offsets": offsets, "itemsize": itemsize})
    rows = (np.memmap(f, dtype=dtype, mode="r", offset=offset, shape=(header.n_vertices,)) if header.n_vertices
            else np.empty(0, dtype=dtype))
    values = {name: rows[name] for name in names}
    _check_label_ranges(path, values, header, lambda row: f"vertex {row}")
    return values


def read_ply(path) -> PointCloud:
    """Read a PLY with vertex properties x, y, z and optional semantic, instance, in any of the format's
    encodings: ``ascii``, ``binary_little_endian`` or ``binary_big_endian``.

    A binary file's size must be its header's plus its rows', and a label must fit int64 (vertices counted
    from 0). A text file's rows are parsed, a label outside its declared type's range rejected, and it may
    end in blank lines but hold no data beyond the declared vertices. A fault is a :class:`ParseError`
    naming the file, and a text row's line.
    """
    path = Path(path)
    with _open_input(path) as f:
        header, offset = _read_ply_header(path, f)
        if header.byte_order is not None:
            return _cloud(_binary_rows(path, f, header, offset))
        f.seek(offset)
        text = _text(f)
        fields = _cloud_fields(list(header.properties))
        width, n_vertices, data_start = len(header.properties), header.n_vertices, header.end
        values = _load_rows(itertools.islice(text, n_vertices), width, fields, None)
        if values is not None and len(values["x"]) == n_vertices and not any(map(str.strip, text)):
            _check_label_ranges(path, values, header, lambda row: f"line {data_start + 1 + row}")
            return _cloud(values)
    # Otherwise the row loop, on the file read again as lines, names the faulty line.
    lines = _read_lines(path)[data_start:]
    if len(lines) < n_vertices:
        raise ParseError(f"{path}: header declares {n_vertices} vertices but only {len(lines)} data lines follow")
    values = _parse_row_by_row(path, lines[:n_vertices], range(data_start + 1, data_start + 1 + n_vertices),
                               width, fields, None)
    _check_label_ranges(path, values, header, lambda row: f"line {data_start + 1 + row}")
    cloud = _cloud(values)
    for lineno, raw in enumerate(lines[n_vertices:], start=data_start + 1 + n_vertices):
        if raw.strip():
            raise ParseError(f"{path}: line {lineno}: data beyond the {n_vertices} declared vertices")
    return cloud


def write_ply(path, cloud: PointCloud) -> None:
    """Write a binary little-endian PLY: ``double`` x, y, z, then ``int`` (int32) semantic and instance where the
    cloud has them, every row in one write.

    An instance id above int32's range raises :class:`InvalidLabel` before the file is opened.
    """
    columns = _cloud_columns(cloud)
    if cloud.instance is not None and cloud.n and (top := int(cloud.instance.max())) > np.iinfo(np.int32).max:
        raise InvalidLabel(f"{path}: instance id {top} does not fit a PLY int column (at most "
                           f"{np.iinfo(np.int32).max})")
    types = {name: "double" if _CLOUD_TYPES[name] is float else "int" for name in columns}
    rows = np.empty(cloud.n, dtype=[(name, "<" + _PLY_TYPES[ptype]) for name, ptype in types.items()])
    for name, values in columns.items():
        rows[name] = values
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {cloud.n}",
              *(f"property {ptype} {name}" for name, ptype in types.items()), "end_header"]
    with _open_output(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        f.write(rows)


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


def _check_label_table_path(path) -> None:
    """A :class:`ConfigError` for a ``.ply`` path: :func:`read_labels_tsv` would read it back as a PLY cloud."""
    if (suffix := Path(path).suffix).lower() == ".ply":
        raise ConfigError(f"{path}: label tables are written as TSV, but a {suffix!r} file is read as a PLY cloud")


def write_labels_tsv(path, instance, semantic=None) -> None:
    """Write final per-point labels: point_id, instance, and optional semantic.

    A path with a ``.ply`` suffix, in any case, is a :class:`ConfigError`.
    ``instance`` must be 1-D and ``semantic`` of its length, both integers
    (as ``core._int64_ids`` takes them), or :class:`ShapeMismatch` is raised. Both are raised before the file is opened.
    """
    _check_label_table_path(path)
    instance = _int64_ids(instance, "instance")
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


def _narrowest(values: npt.ArrayLike) -> npt.NDArray:
    """Integer ``values`` as int32 if every one fits, else as int64."""
    values = np.asarray(values, dtype=np.int64)
    int32 = np.iinfo(np.int32)
    if not values.size or (values.min() >= int32.min and values.max() <= int32.max):
        return values.astype(np.int32)
    return values


def write_block_file(path, prediction: BlockPrediction) -> None:
    """Write one block's predictions as an uncompressed ``.npz`` archive of the fields in ``_NPZ_FIELDS``.

    The packed masks are written as they are held: their concatenated ids as
    ``point_ids``, cut apart again by ``mask_sizes``. Each integer field is
    stored as int32 when all its values fit, and as int64 otherwise. Every
    member is stored with the zip format's fixed 1980 timestamp, so one
    prediction always gives the same bytes. A path whose suffix is not
    ``.npz`` is a :class:`ConfigError`, raised before the file is opened:
    :func:`read_block_file` would read it by its suffix.
    """
    if (suffix := Path(path).suffix.lower()) != ".npz":
        raise ConfigError(f"{path}: block files are written as .npz, got suffix {suffix!r}")
    masks = prediction.masks
    fields = {
        "block_id": _narrowest(prediction.block_id),
        "query_index": _narrowest(masks.query_index),
        "mask_sizes": _narrowest(masks.mask_sizes),
        "score": masks.score,
        "point_ids": _narrowest(masks.point_ids),
    }
    if prediction.semantic is not None:
        for key, values in zip(_SEMANTIC_KEYS, prediction.semantic):
            fields[f"semantic_{key}"] = _narrowest(_int64_ids(values, f"semantic {key}"))
    with _open_output(path, "wb") as f:
        np.savez(f, **fields)


def read_block_file(path) -> BlockPrediction:
    """Read one block's predictions from a ``.npz`` archive, as :func:`write_block_file` writes them, or from a
    ``.json`` file; any other extension is a :class:`ParseError`."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npz":
        return _read_npz_block(path)
    if suffix == ".json":
        return _read_json_block(path)
    raise ParseError(f"{path}: unsupported extension {suffix!r}, expected .npz or .json")


def _malformed(path: Path, message: str) -> ParseError:
    return ParseError(f"{path}: malformed block file: {message}")


def _read_npz_block(path: Path) -> BlockPrediction:
    """A block file's ``.npz`` archive, read with pickles refused.

    Exactly the fields of ``_NPZ_FIELDS`` are allowed, the semantic pair both
    or neither, each of its rank. Integer fields are taken as
    ``core._int64_ids`` takes ids, and a nonempty ``score`` must be
    floats. The mask fields become one :class:`BlockMasks` as they are, with
    no object per mask, so its checks apply: ``query_index``, ``mask_sizes``
    and ``score`` have one length, and the sizes are >= 0 and sum to the
    length of ``point_ids``. Any other file, such as a bare ``.npy`` array, a
    pickle or a cut zip, is a :class:`ParseError`, and so are masks that
    :class:`BlockMasks` rejects.
    """
    with _open_input(path) as f:
        try:
            archive = np.load(f, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                raise _malformed(path, "a bare .npy array, not an .npz archive")
            with archive:
                fields = {name: archive[name] for name in archive.files}
        except _NPZ_FAULTS as exc:
            raise _malformed(path, f"not a readable .npz archive: {type(exc).__name__}: {exc}") from None
    if unknown := sorted(set(fields) - set(_NPZ_FIELDS)):
        raise _malformed(path, f"unknown field {unknown[0]!r}")
    missing = [name for name in _NPZ_FIELDS if name not in fields]
    if missing and missing != [f"semantic_{key}" for key in _SEMANTIC_KEYS]:
        raise _malformed(path, f"missing field {missing[0]!r}")
    for name, value in fields.items():
        if not isinstance(value, np.ndarray):
            raise _malformed(path, f"{name} is not an .npy array")
        rank = _NPZ_FIELDS[name]
        if value.ndim != rank:
            raise _malformed(path, f"{name} must have rank {rank}, got shape {value.shape}")
        if name != "score":
            try:
                fields[name] = _int64_ids(value, name)
            except ShapeMismatch as exc:
                raise _malformed(path, str(exc)) from None
        elif value.size and value.dtype.kind != "f":
            raise _malformed(path, f"score must be floats, got dtype {value.dtype}")
    try:
        masks = BlockMasks(*(fields[name] for name in ("point_ids", "mask_sizes", "score", "query_index")))
    except ShapeMismatch as exc:  # lengths, sizes and scores, as any packed masks are checked
        raise _malformed(path, str(exc)) from None
    semantic = None
    if "semantic_point_ids" in fields:
        semantic = (fields["semantic_point_ids"], fields["semantic_classes"])
    return BlockPrediction(block_id=int(fields["block_id"]), masks=masks, semantic=semantic)


def _read_json_block(path: Path) -> BlockPrediction:
    """A block file's JSON, as blocks were written before ``.npz``.

    Any JSON whitespace reads back, so indented files load too.
    ``query_index`` defaults to a mask's position and ``semantic`` is
    optional. Values are not converted: ``block_id`` and ``query_index`` must
    be JSON integers (``query_index`` one that fits int64), ``score`` a JSON
    number, and each id or class list a flat list of integers that fit int64
    (booleans count as none of these); otherwise :class:`ParseError` is
    raised. Other keys, such as the
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
        return _malformed(path, message)

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

    def packed(entries) -> BlockMasks:
        """The masks of ``entries``, each checked in turn, so the first fault in file order is the one raised."""
        ids, scores, queries = [], [], []
        int64 = np.iinfo(np.int64)
        for qi, m in enumerate(entries):
            ids.append(integer_array(m["point_ids"], f"masks[{qi}].point_ids"))
            score = m["score"]
            if type(score) not in (int, float):
                raise malformed(f"masks[{qi}].score must be a number, got {score!r}")
            query = integer(m.get("query_index", qi), f"masks[{qi}].query_index")
            if not int64.min <= query <= int64.max:
                raise malformed(f"masks[{qi}].query_index must fit int64, got {query}")
            queries.append(query)
            if not (math.isfinite(score) and 0 <= score <= 1):
                raise malformed(f"masks[{qi}]: mask score must be in [0, 1], got {float(score)}")
            scores.append(float(score))
        return BlockMasks.pack(ids, scores, queries)

    try:
        block_id = integer(payload["block_id"], "block_id")
        masks = packed(payload["masks"])
        semantic = None
        if "semantic" in payload:
            semantic = tuple(integer_array(payload["semantic"][key], f"semantic.{key}") for key in _SEMANTIC_KEYS)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise malformed(repr(exc)) from None
    return BlockPrediction(block_id=block_id, masks=masks, semantic=semantic)


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation. A payload that does not serialize leaves no file."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with _open_output(path, "w") as f:
        f.write(text)
