"""Round-trip fidelity of the PLY/TSV/JSON readers and writers."""

import builtins
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forestseg import io
from forestseg.core import PointCloud
from forestseg.errors import ForestSegError, InvalidLabel, ParseError, ShapeMismatch
from forestseg.merging import BlockPrediction, InstanceMask
from forestseg.synthgen import ForestParams, generate_forest
from io_reference import (reference_int_rows, reference_read_labels_tsv, reference_read_ply, reference_read_tsv,
                          reference_write_block_file, reference_write_labels_tsv)


def assert_clouds_equal(a: PointCloud, b: PointCloud):
    assert np.array_equal(a.positions, b.positions)
    if a.semantic is None:
        assert b.semantic is None
    else:
        assert np.array_equal(a.semantic, b.semantic)
    if a.instance is None:
        assert b.instance is None
    else:
        assert np.array_equal(a.instance, b.instance)


# Every character ``str.splitlines`` breaks a line at besides "\n" and "\r". Only those two end a line in a
# text input, so each of these stays inside its line.
LINE_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


# Floats that need every digit of their repr, a signed zero and exponents.
THREE_POINTS = [[0.1, -2.5, 1e-07], [12345.678901234567, 3.0, -0.0], [1e16, 2.220446049250313e-16, 7.0]]


@pytest.fixture
def cloud(rng):
    positions = rng.uniform(-100.0, 100.0, size=(50, 3))
    instance = rng.integers(0, 4, size=50)
    semantic = np.where(instance >= 1, rng.integers(1, 3, size=50), 0)
    return PointCloud(positions=positions, semantic=semantic, instance=instance)


class TestPly:
    def test_round_trip_bit_exact(self, cloud, tmp_path):
        path = tmp_path / "cloud.ply"
        io.write_ply(path, cloud)
        assert_clouds_equal(cloud, io.read_ply(path))

    def test_round_trip_without_labels(self, rng, tmp_path):
        cloud = PointCloud(positions=rng.normal(size=(10, 3)))
        path = tmp_path / "bare.ply"
        io.write_ply(path, cloud)
        loaded = io.read_ply(path)
        assert_clouds_equal(cloud, loaded)

    def test_rewrite_is_byte_identical(self, cloud, tmp_path):
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        io.write_ply(first, cloud)
        io.write_ply(second, io.read_ply(first))
        assert first.read_bytes() == second.read_bytes()

    def test_missing_magic_names_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("plx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(ParseError, match="line 1"):
            io.read_ply(path)

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(ParseError, match="line 2"):
            io.read_ply(path)

    def test_short_data_row_names_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n"
            "0.0 0.0 0.0\n1.0 1.0\n"
        )
        with pytest.raises(ParseError, match="line 9"):
            io.read_ply(path)

    def test_exact_text(self, tmp_path):
        header = "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\nproperty double y\nproperty double z\n"
        path = tmp_path / "three.ply"
        io.write_ply(path, PointCloud(positions=THREE_POINTS, semantic=[0, 1, 2], instance=[0, 4, 4]))
        assert path.read_text() == (
            header + "property int semantic\nproperty int instance\nend_header\n"
            "0.1 -2.5 1e-07 0 0\n12345.678901234567 3.0 -0.0 1 4\n1e+16 2.220446049250313e-16 7.0 2 4\n"
        )
        io.write_ply(path, PointCloud(positions=THREE_POINTS))
        assert path.read_text() == (
            header + "end_header\n0.1 -2.5 1e-07\n12345.678901234567 3.0 -0.0\n1e+16 2.220446049250313e-16 7.0\n"
        )

    @pytest.mark.parametrize("element", ["element vertex -1", "element"])
    def test_bad_element_line_names_line(self, tmp_path, element):
        path = tmp_path / "bad.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{element}\nproperty double x\nend_header\n")
        with pytest.raises(ParseError, match="bad.ply: line 3: "):
            io.read_ply(path)

    def test_data_beyond_declared_vertices_names_first_extra_line(self, tmp_path):
        path = tmp_path / "long.ply"
        body = "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
        path.write_text(body + "end_header\n0 0 0\n\n1 1 1\n2 2 2\n")
        with pytest.raises(ParseError, match="long.ply: line 10: data beyond the 1 declared vertices"):
            io.read_ply(path)
        path.write_text(body + "end_header\n0 0 0\n\n  \n")  # trailing blank lines are fine
        assert io.read_ply(path).n == 1

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "big.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\n"
            "property double z\nproperty int instance\nend_header\n0 0 0 99999999999999999999\n"
        )
        with pytest.raises(ParseError, match="big.ply: line 9: "):
            io.read_ply(path)

    def test_repeated_property_rejected(self, tmp_path):
        path = tmp_path / "twice.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\n"
            "property double z\nproperty double z\nend_header\n0 0 0 1\n"
        )
        with pytest.raises(ParseError, match="twice.ply: line 7: repeated column name 'z'"):
            io.read_ply(path)

    @pytest.mark.parametrize("lines, message", [
        (["element vertex 2", "property double x", "element vertex 1"], "line 5: a second element line"),
        (["element vertex 1", "property double x", "element face 0"], "line 5: a second element line"),
        (["format ascii 1.0", "element vertex 1", "property double x"], "line 3: a second format line"),
    ])
    def test_second_element_or_format_line_rejected(self, tmp_path, lines, message):
        path = tmp_path / "twice.ply"
        path.write_text("\n".join(["ply", "format ascii 1.0", *lines, "property double y", "property double z",
                                   "end_header", "0 0 0", "1 1 1"]) + "\n")
        with pytest.raises(ParseError, match=f"twice.ply: {message}"):
            io.read_ply(path)
        with pytest.raises(ParseError, match=f"twice.ply: {message}"):
            reference_read_ply(path)

    @pytest.mark.parametrize("header, message", [
        ("", "empty file"),
        ("ply\nformat ascii 1.0\nproperty double x\n", "line 3: property outside vertex element"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double\n",
         "line 4: malformed property 'property double'"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty int x\n", "line 4: x must be a float type, got 'int'"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
         "property float instance\n", "line 7: instance must be an integer type, got 'float'"),
        ("ply\nformat ascii 1.0\nobj_info scanner 2\n", "line 3: unexpected header line 'obj_info scanner 2'"),
        ("ply\nformat ascii 1.0\nelement vertex 0\nproperty double x\n", "missing end_header"),
        ("ply\nformat ascii 1.0\nend_header\n", "header declares no vertex element"),
    ], ids=["empty", "property-first", "malformed-property", "int-x", "float-instance", "unknown-keyword",
            "no-end-header", "no-vertex-element"])
    def test_header_fault_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.ply"
        path.write_text(header)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_ply(path)

    def test_missing_format_line_names_end_of_header(self, tmp_path):
        path = tmp_path / "bare.ply"
        path.write_text("ply\nelement vertex 1\nproperty double x\nproperty double y\nproperty double z\n"
                        "end_header\n0 0 0\n")
        with pytest.raises(ParseError, match="bare.ply: line 6: header has no 'format ascii 1.0' line"):
            io.read_ply(path)

    def test_binary_body_reports_the_format_line(self, tmp_path):
        body = np.array([0.5, -1.0, 2.0]).tobytes()
        with pytest.raises(UnicodeDecodeError):
            body.decode()
        path = tmp_path / "binary.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty double x\n"
                         b"property double y\nproperty double z\nend_header\n" + body)
        with pytest.raises(ParseError, match="binary.ply: line 2: only 'format ascii 1.0' is supported"):
            io.read_ply(path)

    def test_undecodable_byte_in_data_names_line(self, tmp_path):
        path = tmp_path / "latin.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty double y\n"
                         b"property double z\nend_header\n0 0 0\n1 \xe9 1\n")
        with pytest.raises(ParseError, match="latin.ply: line 9: "):
            io.read_ply(path)
        assert outcome(io.read_ply, path) == outcome(reference_read_ply, path)

    @pytest.mark.parametrize("separator", LINE_SEPARATORS)
    def test_separator_in_comment_stays_in_its_line(self, tmp_path, separator):
        path = tmp_path / "comment.ply"
        header = (f"ply\nformat ascii 1.0\ncomment scanned{separator}by unit 2\nelement vertex 2\n"
                  "property double x\nproperty double y\nproperty double z\nend_header\n")
        path.write_bytes((header + "0 0 0\n1 1 1\n").encode())
        assert io.read_ply(path).positions.tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        path.write_bytes((header + "0 0 0\n1 1\n").encode())
        with pytest.raises(ParseError, match="comment.ply: line 10: expected 3 values, got 2"):
            io.read_ply(path)

    def test_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\nproperty double y\nend_header\n0 0\n"
        )
        with pytest.raises(ParseError, match="'z'"):
            io.read_ply(path)


class TestTsv:
    def test_round_trip_bit_exact(self, cloud, tmp_path):
        path = tmp_path / "cloud.tsv"
        io.write_tsv(path, cloud)
        assert_clouds_equal(cloud, io.read_tsv(path))

    def test_headerless_positional_columns(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("1.5\t2.5\t3.5\t1\t2\n")
        loaded = io.read_tsv(path)
        assert loaded.positions.tolist() == [[1.5, 2.5, 3.5]]
        assert loaded.semantic.tolist() == [1]
        assert loaded.instance.tolist() == [2]

    def test_exact_text(self, tmp_path):
        path = tmp_path / "three.tsv"
        io.write_tsv(path, PointCloud(positions=THREE_POINTS, semantic=[0, 1, 2], instance=[0, 4, 4]))
        assert path.read_text() == (
            "x\ty\tz\tsemantic\tinstance\n0.1\t-2.5\t1e-07\t0\t0\n"
            "12345.678901234567\t3.0\t-0.0\t1\t4\n1e+16\t2.220446049250313e-16\t7.0\t2\t4\n"
        )
        io.write_tsv(path, PointCloud(positions=THREE_POINTS))
        assert path.read_text() == (
            "x\ty\tz\n0.1\t-2.5\t1e-07\n12345.678901234567\t3.0\t-0.0\n1e+16\t2.220446049250313e-16\t7.0\n"
        )

    def test_first_row_with_a_number_is_data(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text("1.0\t2.0\toops\n3.0\t4.0\t5.0\n")
        with pytest.raises(ParseError, match="plain.tsv: line 1: could not convert string to float: 'oops'"):
            io.read_tsv(path)
        path.write_text("x\ty\tz\tinstance\n3.0\t4.0\t5.0\t2\n")
        loaded = io.read_tsv(path)
        assert loaded.positions.tolist() == [[3.0, 4.0, 5.0]] and loaded.instance.tolist() == [2]

    def test_headerless_without_z_names_line(self, tmp_path):
        path = tmp_path / "flat.tsv"
        path.write_text("1.0\t2.0\n")
        with pytest.raises(ParseError, match="flat.tsv: line 1: missing required column 'z'"):
            io.read_tsv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x\ty\tz\tcolor\n0\t0\t0\t1\n")
        with pytest.raises(ParseError, match="color"):
            io.read_tsv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x\ty\tz\n0\t0\t0\n0\toops\t0\n")
        with pytest.raises(ParseError, match="line 3"):
            io.read_tsv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.tsv"
        path.write_text("x\ty\tz\n\n0\t0\t0\n\n0\toops\t0\n")
        with pytest.raises(ParseError, match="gaps.tsv: line 5: "):
            io.read_tsv(path)
        path.write_text("\n\nx\ty\tz\tcolor\n0\t0\t0\t1\n")
        with pytest.raises(ParseError, match="gaps.tsv: line 3: unknown column 'color'"):
            io.read_tsv(path)

    @pytest.mark.parametrize("separator", LINE_SEPARATORS)
    def test_separator_stays_in_its_line(self, tmp_path, separator):
        path = tmp_path / "gaps.tsv"
        path.write_bytes(f"x\ty\tz\n0\t0\t0\n{separator}\n1\t1\t1\n0\toops\t0\n".encode())
        with pytest.raises(ParseError, match="gaps.tsv: line 5: could not convert string to float: 'oops'"):
            io.read_tsv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("x\ty\tz\tz\n0\t0\t0\t1\n")
        with pytest.raises(ParseError, match="twice.tsv: line 1: repeated column name 'z'"):
            io.read_tsv(path)

    def test_blank_lines_only_is_an_empty_file(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("\n  \n\t\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: empty file')}$"):
            io.read_tsv(path)


class TestLabelsTsv:
    def test_round_trip(self, tmp_path, rng):
        instance = rng.integers(0, 5, size=30)
        semantic = rng.integers(0, 3, size=30)
        path = tmp_path / "labels.tsv"
        io.write_labels_tsv(path, instance, semantic)
        inst, sem = io.read_labels_tsv(path)
        assert np.array_equal(inst, instance)
        assert np.array_equal(sem, semantic)

    def test_reads_labels_from_cloud_tsv(self, cloud, tmp_path):
        path = tmp_path / "cloud.tsv"
        io.write_tsv(path, cloud)
        inst, sem = io.read_labels_tsv(path)
        assert np.array_equal(inst, cloud.instance)
        assert np.array_equal(sem, cloud.semantic)

    def test_reads_labels_from_headerless_cloud_tsv(self, cloud, tmp_path):
        path = tmp_path / "cloud.tsv"
        io.write_tsv(path, cloud)
        path.write_text(path.read_text().split("\n", 1)[1])
        inst, sem = io.read_labels_tsv(path)
        assert np.array_equal(inst, cloud.instance)
        assert np.array_equal(sem, cloud.semantic)

    @pytest.mark.parametrize("header", [True, False])
    def test_cloud_tsv_is_read_once(self, cloud, tmp_path, monkeypatch, header):
        path = tmp_path / "cloud.tsv"
        io.write_tsv(path, cloud)
        if not header:
            path.write_text(path.read_text().split("\n", 1)[1])
        opens = []
        real_open = builtins.open

        def counted(file, *args, **kwargs):
            opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        inst, _ = io.read_labels_tsv(path)
        assert opens == [path]
        assert np.array_equal(inst, cloud.instance)

    def test_reads_labels_from_ply(self, cloud, tmp_path):
        path = tmp_path / "cloud.ply"
        io.write_ply(path, cloud)
        inst, sem = io.read_labels_tsv(path)
        assert np.array_equal(inst, cloud.instance)

    def test_duplicate_point_id_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\n0\t1\n0\t2\n")
        with pytest.raises(ParseError, match="line 3: duplicate point_id 0"):
            io.read_labels_tsv(path)

    def test_out_of_range_point_id_names_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\n0\t1\n2\t2\n")
        with pytest.raises(ParseError, match="line 3: point_id 2 outside 0..1"):
            io.read_labels_tsv(path)

    @pytest.mark.parametrize("rows, message", [
        # A bad token anywhere comes before an id fault, even on an earlier line.
        ("0\t1\n0\t1\n2\tx\n", "line 4: invalid literal for int"),
        ("5\t1\n1\t1\n2\t1\t0\n", "line 4: expected 2 values, got 3"),
        # Then the first id fault, before a label value outside its domain on an earlier line.
        ("0\t-1\n1\t1\n1\t1\n", "line 4: duplicate point_id 1"),
        ("0\t-1\n1\t1\n3\t1\n", r"line 4: point_id 3 outside 0\.\.2"),
        ("1\t1\n1\t1\n7\t1\n", "line 3: duplicate point_id 1"),
    ])
    def test_fault_precedence(self, tmp_path, rows, message):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\n" + rows)
        with pytest.raises(ParseError, match="labels.tsv: " + message):
            io.read_labels_tsv(path)
        assert outcome(io.read_labels_tsv, path) == outcome(reference_read_labels_tsv, path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("point_id\tinstance\tsemantic\tsemantic\n0\t1\t1\t2\n")
        with pytest.raises(ParseError, match="twice.tsv: line 1: repeated column name 'semantic'"):
            io.read_labels_tsv(path)

    @pytest.mark.parametrize("header, column", [
        ("point_id\tinstance\tsemnatic", "semnatic"),
        ("point_id\tinstance\tsemantic\tcolour", "colour"),
    ])
    def test_unknown_column_rejected(self, tmp_path, header, column):
        path = tmp_path / "labels.tsv"
        path.write_text(f"\n{header}\n" + "0\t1\t2\t3\n")
        with pytest.raises(ParseError, match=f"labels.tsv: line 2: unknown column '{column}'"):
            io.read_labels_tsv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("\npoint_id\tinstance\n\n0\t1\n\n0\t2\n")
        with pytest.raises(ParseError, match="labels.tsv: line 6: duplicate point_id 0"):
            io.read_labels_tsv(path)
        path.write_text("\npoint_id\tinstanse\n0\t1\n")
        with pytest.raises(ParseError, match="labels.tsv: line 2: expected columns starting"):
            io.read_labels_tsv(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\tsemantic\n2\t5\t1\n0\t0\t0\n1\t5\t2\n")
        inst, sem = io.read_labels_tsv(path)
        assert inst.tolist() == [0, 5, 5]
        assert sem.tolist() == [0, 2, 1]

    def test_exact_text(self, tmp_path):
        path = tmp_path / "labels.tsv"
        io.write_labels_tsv(path, np.array([0, 4, 4]), np.array([0, 1, 2]))
        assert path.read_text() == "point_id\tinstance\tsemantic\n0\t0\t0\n1\t4\t1\n2\t4\t2\n"
        io.write_labels_tsv(path, [0, 4, 4])
        assert path.read_text() == "point_id\tinstance\n0\t0\n1\t4\n2\t4\n"
        io.write_labels_tsv(path, np.empty(0, dtype=np.int64), [])
        assert path.read_text() == "point_id\tinstance\tsemantic\n"

    @pytest.mark.parametrize("instance, semantic, message", [
        ([1, 2, 3], [0, 1], r"semantic must have shape \(3,\), got \(2,\)"),
        ([1, 2, 3], [[0, 1, 2]], r"semantic must have shape \(3,\), got \(1, 3\)"),
        ([[1, 2], [3, 4]], None, r"instance must be 1-D, got shape \(2, 2\)"),
        (5, None, r"instance must be 1-D, got shape \(\)"),
    ])
    def test_malformed_columns_rejected_before_writing(self, tmp_path, instance, semantic, message):
        path = tmp_path / "labels.tsv"
        with pytest.raises(ShapeMismatch, match=message):
            io.write_labels_tsv(path, instance, semantic)
        assert not path.exists()

    @pytest.mark.parametrize("header, rows, message", [
        ("point_id\tinstance", "0\t1\n1\t-3\n2\t0\n", "line 3: instance ids must be >= 0, got -3"),
        ("point_id\tinstance\tsemantic", "0\t1\t7\n1\t0\t0\n2\t0\t0\n",
         re.escape("line 2: semantic classes must be in {0 (ground), 1 (wood), 2 (leaf)}, got 7")),
        ("point_id\tinstance\tsemantic", "0\t1\t1\n1\t0\t-1\n", "line 3: semantic classes must be in .*, got -1"),
        # The first bad line is named, whichever of its columns is bad.
        ("point_id\tinstance\tsemantic", "2\t1\t3\n1\t-1\t0\n0\t-2\t9\n", "line 2: semantic .*, got 3"),
        ("point_id\tinstance\tsemantic", "2\t-1\t3\n1\t1\t1\n0\t1\t1\n", "line 2: instance .*, got -1"),
    ])
    def test_invalid_label_values_rejected(self, tmp_path, header, rows, message):
        path = tmp_path / "labels.tsv"
        path.write_text(header + "\n" + rows)
        with pytest.raises(InvalidLabel, match="labels.tsv: " + message):
            io.read_labels_tsv(path)

    def test_tree_id_on_a_ground_class_is_accepted(self, tmp_path):
        # A noisy mask can give a ground point a tree id, so pipeline label tables hold such points.
        path = tmp_path / "labels.tsv"
        io.write_labels_tsv(path, [3, 0], [0, 2])
        inst, sem = io.read_labels_tsv(path)
        assert inst.tolist() == [3, 0] and sem.tolist() == [0, 2]


# Any int64, with the extremes, values near them and one-digit values drawn often.
INT64S = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-12, 12),
                   st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 10**18, -(10**18)]))


class TestIntegerKernel:
    """``write_labels_tsv``'s integer kernel writes the bytes of the ``str`` join it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_columns=st.integers(1, 3), n_rows=st.integers(0, 50))
    def test_matches_str_join(self, data, n_columns, n_rows):
        columns = [np.array(data.draw(st.lists(INT64S, min_size=n_rows, max_size=n_rows)), dtype=np.int64)
                   for _ in range(n_columns)]
        assert io._int_rows(columns) == reference_int_rows(columns)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=st.lists(INT64S, max_size=50), semantic=st.none() | st.integers(0, 2), data=st.data())
    def test_label_table_matches_reference_writer(self, tmp_path, instance, semantic, data):
        if semantic is not None:
            semantic = data.draw(st.lists(INT64S, min_size=len(instance), max_size=len(instance)))
        io.write_labels_tsv(tmp_path / "fast.tsv", instance, semantic)
        reference_write_labels_tsv(tmp_path / "reference.tsv", instance, semantic)
        assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()


def block_outcome(prediction: BlockPrediction):
    """Everything a block prediction holds, arrays as dtype and bytes, in a form ``==`` compares."""
    def array(a):
        return a.dtype.str, a.shape, a.tobytes()

    masks = [(array(m.point_ids), m.score, m.block_id, m.query_index) for m in prediction.masks]
    semantic = None if prediction.semantic is None else tuple(map(array, prediction.semantic))
    return prediction.block_id, masks, semantic


ID_LISTS = st.lists(st.one_of(st.integers(0, 50), st.integers(2**63 - 3, 2**63 - 1)), max_size=12)


@st.composite
def block_predictions(draw):
    """Block predictions with empty masks, scores 0 and 1, unsorted ids, and with or without semantic votes."""
    block_id = draw(st.integers(0, 2**31))
    queries = draw(st.lists(st.integers(0, 2**31), max_size=4, unique=True))
    scores = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    masks = [InstanceMask(point_ids=np.array(draw(ID_LISTS), dtype=np.int64), score=draw(scores),
                          block_id=block_id, query_index=q) for q in queries]
    semantic = None
    if draw(st.booleans()):
        ids = draw(ID_LISTS)
        classes = draw(st.lists(st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
        semantic = (np.array(ids, dtype=np.int64), np.array(classes, dtype=np.int64))
    return BlockPrediction(block_id=block_id, masks=masks, semantic=semantic)


class TestBlockFiles:
    def test_round_trip(self, tmp_path, rng):
        masks = [
            InstanceMask(point_ids=rng.choice(100, size=8, replace=False), score=0.75,
                         block_id=3, query_index=q)
            for q in range(4)
        ]
        semantic = (np.arange(10), rng.integers(0, 3, size=10))
        path = tmp_path / "block_00003.json"
        io.write_block_file(path, BlockPrediction(block_id=3, masks=masks, semantic=semantic))
        loaded = io.read_block_file(path)
        assert loaded.block_id == 3
        assert len(loaded.masks) == 4
        for original, read in zip(masks, loaded.masks):
            assert np.array_equal(np.sort(original.point_ids), read.point_ids)
            assert read.score == original.score
            assert (read.block_id, read.query_index) == (original.block_id, original.query_index)
        assert np.array_equal(loaded.semantic[0], semantic[0])
        assert np.array_equal(loaded.semantic[1], semantic[1])

    def test_exact_text(self, tmp_path):
        path = tmp_path / "block_00007.json"
        mask = InstanceMask(point_ids=[2, 1], score=0.75, block_id=7, query_index=3)
        votes = (np.array([1, 2]), np.array([1, 2]))
        io.write_block_file(path, BlockPrediction(block_id=7, masks=[mask], semantic=votes))
        assert path.read_text() == BLOCK_TEXT
        io.write_block_file(path, BlockPrediction(block_id=7, masks=[]))
        assert path.read_text() == '{"block_id":7,"masks":[]}\n'

    def test_indented_legacy_text_reads_the_same(self, tmp_path):
        compact, legacy = tmp_path / "compact.json", tmp_path / "legacy.json"
        compact.write_text(BLOCK_TEXT)
        legacy.write_text(LEGACY_BLOCK_TEXT)
        assert block_outcome(io.read_block_file(legacy)) == block_outcome(io.read_block_file(compact))
        legacy.write_text(
            '{\n  "block_id": 7,\n  "center": [\n    8.0,\n    0.25\n  ],\n  "masks": [],\n  "radius": 16.0\n}\n'
        )
        empty = BlockPrediction(block_id=7, masks=[])
        assert block_outcome(io.read_block_file(legacy)) == block_outcome(empty)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prediction=block_predictions())
    def test_compact_and_indented_files_read_back_identically(self, tmp_path, prediction):
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        io.write_block_file(compact, prediction)
        reference_write_block_file(indented, prediction)
        text = compact.read_text()
        assert text.count("\n") == 1 and text.endswith("\n") and " " not in text
        read = block_outcome(io.read_block_file(compact))
        assert read == block_outcome(io.read_block_file(indented))
        assert read == block_outcome(prediction)

    def test_empty_lists_read_as_empty_arrays(self, tmp_path):
        path = tmp_path / "block.json"
        path.write_text('{"block_id": 0, "masks": [{"score": 0.5, "point_ids": []}],'
                        ' "semantic": {"point_ids": [], "classes": []}}')
        loaded = io.read_block_file(path)
        for array in (loaded.masks[0].point_ids, *loaded.semantic):
            assert array.dtype == np.int64 and array.shape == (0,)

    @pytest.mark.parametrize("center, radius", [
        ("[8.0, 0.25]", "16.0"), ("[0, 0]", "-16"), ("[0, 0]", "NaN"), ("[0, 0]", "1e200"), ("[NaN, 0]", "16"),
        ("[1, 2, 3]", "16"), ('[true, "x"]', '"16"'), ("null", "null"),
    ])
    def test_legacy_footprint_keys_ignored(self, tmp_path, center, radius):
        # Older dumps wrote a center and radius; the merge takes both from the block id and the config.
        path = tmp_path / "block.json"
        path.write_text(BLOCK_TEXT.replace('"masks"', f'"center": {center}, "radius": {radius}, "masks"'))
        expected = tmp_path / "expected.json"
        expected.write_text(BLOCK_TEXT)
        assert block_outcome(io.read_block_file(path)) == block_outcome(io.read_block_file(expected))

    def test_minimal_schema_accepted(self, tmp_path):
        # query_index and semantic are optional in external files
        path = tmp_path / "block.json"
        path.write_text(
            '{"block_id": 0, "masks": [{"score": 0.8, "point_ids": [3, 1, 2]}]}'
        )
        loaded = io.read_block_file(path)
        assert loaded.block_id == 0
        assert loaded.masks[0].query_index == 0
        assert loaded.masks[0].point_ids.tolist() == [1, 2, 3]
        assert loaded.semantic is None

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"block_id": 1,\n  "masks": [0, 0\n}')
        with pytest.raises(ParseError, match="line"):
            io.read_block_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"block_id": 1}')
        with pytest.raises(ParseError, match="malformed"):
            io.read_block_file(path)

    @pytest.mark.parametrize("header, masks, what", [
        ('"block_id": 3.7', "[]", "block_id must be an integer, got 3.7"),
        ('"block_id": true', "[]", "block_id must be an integer, got True"),
        ('"block_id": 3.0', "[]", "block_id must be an integer, got 3.0"),
        ('"block_id": "3"', "[]", "block_id must be an integer, got '3'"),
        ('"block_id": 0', '[{"score": 0.5, "point_ids": [1], "query_index": 1.5}]',
         "masks[0].query_index must be an integer, got 1.5"),
        ('"block_id": 0', '[{"score": 0.5, "point_ids": [1]}, {"score": 0.5, "point_ids": [1], "query_index": false}]',
         "masks[1].query_index must be an integer, got False"),
    ])
    def test_non_integer_id_rejected(self, tmp_path, header, masks, what):
        path = tmp_path / "ids.json"
        path.write_text(f'{{{header}, "masks": {masks}}}')
        with pytest.raises(ParseError, match=re.escape(f"ids.json: malformed block file: {what}")):
            io.read_block_file(path)

    @pytest.mark.parametrize("values", ["[1.5, 2.9]", "[1.0]", "[true, 2]", "[2, false]", "[true, false]", "[[1, 2]]",
                                        "[[]]", '["1"]', "[1, null]", "5", "{}", "[1e3]"])
    @pytest.mark.parametrize("section, what", [
        ('"masks": [{"score": 0.5, "point_ids": %s}]', "masks[0].point_ids"),
        ('"masks": [], "semantic": {"point_ids": %s, "classes": [1]}', "semantic.point_ids"),
        ('"masks": [], "semantic": {"point_ids": [1], "classes": %s}', "semantic.classes"),
    ])
    def test_non_integer_list_rejected(self, tmp_path, values, section, what):
        path = tmp_path / "ids.json"
        path.write_text(f'{{"block_id": 0, {section % values}}}')
        with pytest.raises(ParseError, match=re.escape(f"ids.json: malformed block file: {what} must be a flat list "
                                                       "of integers that fit int64")):
            io.read_block_file(path)

    @pytest.mark.parametrize("score, what", [
        ("true", "masks[0].score must be a number, got True"),
        ('"0.5"', "masks[0].score must be a number, got '0.5'"),
    ])
    def test_non_number_score_rejected(self, tmp_path, score, what):
        path = tmp_path / "numbers.json"
        path.write_text(f'{{"block_id": 0, "masks": [{{"score": {score}, "point_ids": [1]}}]}}')
        with pytest.raises(ParseError, match=re.escape(f"numbers.json: malformed block file: {what}")):
            io.read_block_file(path)

    @pytest.mark.parametrize("score, shown", [("1.5", "1.5"), ("-0.25", "-0.25"), ("NaN", "nan")])
    def test_mask_range_check_names_file_and_mask(self, tmp_path, score, shown):
        path = tmp_path / "scores.json"
        path.write_text('{"block_id": 0,'
                        f' "masks": [{{"score": 0.5, "point_ids": [1]}}, {{"score": {score}, "point_ids": [2]}}]}}')
        with pytest.raises(ParseError, match=re.escape(f"scores.json: malformed block file: masks[1]: mask score must "
                                                       f"be in [0, 1], got {shown}")):
            io.read_block_file(path)

    def test_boolean_spelled_only_in_an_unknown_string_still_reads(self, tmp_path):
        path = tmp_path / "note.json"
        path.write_text('{"block_id": 0, "note": "true or false", "masks": [{"score": 1, "point_ids": [2, 1]}]}')
        assert io.read_block_file(path).masks[0].point_ids.tolist() == [1, 2]

    @pytest.mark.parametrize("section", [
        '"masks": [{"score": 0.5, "point_ids": [99999999999999999999]}]',
        '"masks": [], "semantic": {"point_ids": [99999999999999999999], "classes": [1]}',
    ])
    def test_point_id_beyond_int64_rejected(self, tmp_path, section):
        path = tmp_path / "big.json"
        path.write_text(f'{{"block_id": 0, {section}}}')
        with pytest.raises(ParseError, match="big.json: malformed"):
            io.read_block_file(path)


BLOCK_TEXT = (
    '{"block_id":7,"masks":[{"point_ids":[1,2],"query_index":3,"score":0.75}],'
    '"semantic":{"classes":[1,2],"point_ids":[1,2]}}\n'
)

# BLOCK_TEXT as block files were written before the compact layout: indented, one value per line, and
# with the block's center and radius, which the reader ignores.
LEGACY_BLOCK_TEXT = """\
{
  "block_id": 7,
  "center": [
    8.0,
    0.25
  ],
  "masks": [
    {
      "point_ids": [
        1,
        2
      ],
      "query_index": 3,
      "score": 0.75
    }
  ],
  "radius": 16.0,
  "semantic": {
    "classes": [
      1,
      2
    ],
    "point_ids": [
      1,
      2
    ]
  }
}
"""


class TestVectorizedParse:
    """Well-formed tables take the one-pass ``np.loadtxt`` parse; the row loop runs only on rejection."""

    @pytest.fixture
    def row_loop_calls(self, monkeypatch):
        calls = []
        row_by_row = io._parse_row_by_row

        def counted(*args):
            calls.append(args[0])
            return row_by_row(*args)

        monkeypatch.setattr(io, "_parse_row_by_row", counted)
        return calls

    def test_well_formed_tables_skip_the_row_loop(self, cloud, tmp_path, row_loop_calls):
        io.write_ply(tmp_path / "cloud.ply", cloud)
        io.write_tsv(tmp_path / "cloud.tsv", cloud)
        io.write_labels_tsv(tmp_path / "labels.tsv", cloud.instance, cloud.semantic)
        assert_clouds_equal(io.read_ply(tmp_path / "cloud.ply"), cloud)
        assert_clouds_equal(io.read_tsv(tmp_path / "cloud.tsv"), cloud)
        instance, semantic = io.read_labels_tsv(tmp_path / "labels.tsv")
        assert np.array_equal(instance, cloud.instance) and np.array_equal(semantic, cloud.semantic)
        (tmp_path / "shuffled.tsv").write_text("point_id\tinstance\n2\t5\n0\t7\n1\t6\n")
        assert io.read_labels_tsv(tmp_path / "shuffled.tsv")[0].tolist() == [7, 6, 5]
        assert row_loop_calls == []

    def test_ignored_ply_property_still_counts_toward_row_width(self, tmp_path, row_loop_calls):
        path = tmp_path / "extra.ply"
        header = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty uchar red\n"
                  "property double y\nproperty double z\nend_header\n")
        path.write_text(header + "1.5 255 2.5 3.5\n-0.0 longer-token 1e308 5e-324\n")
        assert io.read_ply(path).positions.tolist() == [[1.5, 2.5, 3.5], [-0.0, 1e308, 5e-324]]
        assert row_loop_calls == []
        path.write_text(header + "1.5 255 2.5 3.5\n1.5 2.5 3.5\n")
        with pytest.raises(ParseError, match="extra.ply: line 10: expected 4 values, got 3"):
            io.read_ply(path)
        assert row_loop_calls == [path]

    @pytest.mark.filterwarnings("error")
    def test_float_spelling_in_int_column_raises_the_row_error(self, tmp_path, row_loop_calls):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\n0\t1\n1\t1.0\n")
        with pytest.raises(ParseError, match="labels.tsv: line 3: invalid literal for int"):
            io.read_labels_tsv(path)
        assert row_loop_calls == [path]

    def test_non_ascii_int_token_skips_the_loadtxt_pass(self, tmp_path, row_loop_calls):
        path = tmp_path / "labels.tsv"
        path.write_text("point_id\tinstance\n0\t\U000667cd\n")
        with pytest.raises(ParseError, match="labels.tsv: line 2: invalid literal for int"):
            io.read_labels_tsv(path)
        assert row_loop_calls == [path]

    def test_python_only_spellings_still_parse(self, tmp_path, row_loop_calls):
        path = tmp_path / "odd.tsv"
        path.write_text("x\ty\tz\tinstance\n1_0\t\u0661.5\t0\t\uff17\n")
        cloud = io.read_tsv(path)
        assert cloud.positions.tolist() == [[10.0, 1.5, 0.0]] and cloud.instance.tolist() == [7]
        assert row_loop_calls == [path]


# Tokens Python's float or int reads and numpy does not, that neither reads, that overflow int64, or
# that numpy 2.4's int parser misreads (U+667CD as 419741).
BAD_TOKENS = ["1.0", "1e3", "1_0", "True", "\u0661", "\uff15", "\U000667cd", "9223372036854775808",
              "-9223372036854775809", "oops", "", "0x10", "nan", "-inf"]
FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17e}"),
    st.sampled_from(["0.0", "-0.0", "5e-324", "-2.225073858507201e-308", "1e308", "-1e308", "+3.", ".5", "7"]),
)
INT64_TOKENS = st.one_of(st.integers(-5, 5), st.integers(-(2**63), -(2**63) + 3),
                         st.integers(2**63 - 4, 2**63 - 1)).map(str)
# Text without whitespace or line breaks, for PLY properties the reader ignores.
OTHER_TOKENS = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), min_size=1, max_size=4)


@st.composite
def label_tokens(draw):
    """A (semantic, instance) pair that ``PointCloud`` accepts, instance ids up to the int64 limit."""
    instance = draw(st.one_of(st.just(0), st.integers(1, 3), st.integers(2**63 - 3, 2**63 - 1)))
    return ("0" if instance == 0 else draw(st.sampled_from(["1", "2"]))), str(instance)


@st.composite
def damaged(draw, rows, ids=None):
    """Rows of tokens, left intact or with one defect: a short or long row, a
    blank line, a token from ``BAD_TOKENS``, or (with ``ids``, a label table's
    point_id column index) a repeated or out-of-range point_id.
    """
    kinds = ["none", "short", "long", "blank", "bad"] + (["duplicate", "range"] if ids is not None else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif rows and kind != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "short":
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.insert(draw(st.integers(0, len(row))), "0")
        elif kind == "bad":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "duplicate":
            row[ids] = draw(st.sampled_from(rows))[ids]
        else:
            row[ids] = draw(st.sampled_from([str(len(rows)), "-1"]))
    return rows


def with_line_ends(draw, lines):
    """The lines as text, each ended by "\\n", "\\r\\n" or a lone "\\r"."""
    return "".join(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for line in lines)


# Header comments with any text but a line end, non-ASCII and line separators included.
COMMENTS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6)


@st.composite
def ply_files(draw):
    """A PLY whose rows are damaged as ``damaged`` does, or whose header declares
    more or fewer rows than follow; blank lines may follow the rows."""
    labels = draw(st.sampled_from([[], ["instance"], ["semantic", "instance"]]))
    columns = ["x", "y", "z", *labels]
    for name in draw(st.lists(st.sampled_from(["red", "nx", "intensity"]), max_size=2, unique=True)):
        columns.insert(draw(st.integers(0, len(columns))), name)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        semantic, instance = draw(label_tokens())
        values = {"semantic": semantic, "instance": instance}
        rows.append([values.get(name) or draw(FLOAT_TOKENS if name in ("x", "y", "z") else OTHER_TOKENS)
                     for name in columns])
    n = len(rows)
    rows = draw(damaged(rows))
    pads = st.sampled_from(["", " ", "\t", " \t  "])
    lines = [draw(pads) + draw(st.sampled_from([" ", "\t", "  \t"])).join(row) + draw(pads) for row in rows]
    lines += draw(st.lists(st.sampled_from(["", " ", "\t", "\x0c"]), max_size=2))
    n = max(0, n + draw(st.sampled_from([0, 0, 0, -1, 1, 2])))
    types = {"x": "double", "y": "float", "z": "double", "semantic": "uchar", "instance": "int64"}
    header = ["ply", "format ascii 1.0", f"comment {draw(COMMENTS)}", f"element vertex {n}"]
    header += [f"property {types.get(name, 'int')} {name}" for name in columns] + ["end_header"]
    return with_line_ends(draw, header + lines)


def space_padded(draw, rows):
    pad = st.sampled_from(["", "", " ", "  "])
    return ["\t".join(draw(pad) + token + draw(pad) for token in row) for row in rows]


@st.composite
def cloud_tsv_files(draw):
    columns = ["x", "y", "z", *draw(st.sampled_from([[], ["semantic"], ["semantic", "instance"]]))]
    headed = draw(st.booleans())
    if headed:
        columns = draw(st.permutations(columns))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        semantic, instance = draw(label_tokens())
        values = {"semantic": semantic, "instance": instance}
        rows.append([values.get(name) or draw(FLOAT_TOKENS) for name in columns])
    rows = draw(damaged(rows))
    lines = space_padded(draw, rows)
    return with_line_ends(draw, (["\t".join(columns)] if headed else []) + lines)


@st.composite
def label_table_files(draw):
    columns = ["point_id", "instance", *draw(st.sampled_from([[], ["semantic"]]))]
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations(range(n)))
    rows = [[str(pid)] + [draw(INT64_TOKENS) for _ in columns[1:]] for pid in ids]
    rows = draw(damaged(rows, ids=0))
    return with_line_ends(draw, ["\t".join(columns)] + space_padded(draw, rows))


def outcome(read, path):
    """What a reader returns, as the bytes of each array, or the error it raises."""
    try:
        result = read(path)
    except ForestSegError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, PointCloud):
        result = (result.positions, result.semantic, result.instance)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in result]


class TestMatchesRowByRowReference:
    """Every table gives the row-by-row readers' arrays bit for bit, or their error message, whatever its line ends."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=ply_files())
    def test_ply(self, tmp_path, text):
        path = tmp_path / "cloud.ply"
        path.write_bytes(text.encode())
        assert outcome(io.read_ply, path) == outcome(reference_read_ply, path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=cloud_tsv_files())
    def test_cloud_tsv(self, tmp_path, text):
        path = tmp_path / "cloud.tsv"
        path.write_bytes(text.encode())
        assert outcome(io.read_tsv, path) == outcome(reference_read_tsv, path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=label_table_files())
    def test_label_table(self, tmp_path, text):
        path = tmp_path / "labels.tsv"
        path.write_bytes(text.encode())
        assert outcome(io.read_labels_tsv, path) == outcome(reference_read_labels_tsv, path)


def traced_peak(read, path):
    """What ``read(path)`` returns, and the most memory it held traced at once beyond what was held before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(path)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestReadMemory:
    """A reader streams its rows from the open file into the parse: it never holds the file's text or a list of
    its lines, so its peak stays within 3x the arrays it returns (it was 6x for a cloud, 10x for a label table)."""

    @pytest.fixture(scope="class")
    def scene(self):
        return generate_forest(ForestParams(n_trees=30, plot_size=20.0, seed=0))  # 21,772 points

    @pytest.mark.parametrize("suffix", [".ply", ".tsv"])
    def test_read_cloud(self, scene, tmp_path, suffix):
        path = tmp_path / f"scene{suffix}"
        io.write_cloud(path, scene)
        cloud, peak = traced_peak(io.read_cloud, path)
        assert_clouds_equal(cloud, scene)
        assert peak <= 3 * (cloud.positions.nbytes + cloud.semantic.nbytes + cloud.instance.nbytes)

    def test_read_labels_tsv(self, scene, tmp_path):
        path = tmp_path / "labels.tsv"
        io.write_labels_tsv(path, scene.instance, scene.semantic)
        (instance, semantic), peak = traced_peak(io.read_labels_tsv, path)
        assert np.array_equal(instance, scene.instance) and np.array_equal(semantic, scene.semantic)
        assert peak <= 3 * (instance.nbytes + semantic.nbytes)


def test_label_table_is_written_a_chunk_at_a_time(tmp_path, rng):
    # 100,000 rows span seven chunks: one wide and one negative id make chunks of different widths.
    instance = rng.integers(0, 200, size=100_000)
    instance[[50_000, 70_000]] = [10**12, -5]
    semantic = rng.integers(0, 3, size=100_000)
    path = tmp_path / "labels.tsv"
    _, peak = traced_peak(lambda p: io.write_labels_tsv(p, instance, semantic), path)
    reference_write_labels_tsv(tmp_path / "reference.tsv", instance, semantic)
    assert path.read_bytes() == (tmp_path / "reference.tsv").read_bytes()
    # Formatting the whole table at once peaked at 10.7 MiB here, seven times its label arrays; by chunks, 2.4.
    assert peak <= 2 * (instance.nbytes + semantic.nbytes)
