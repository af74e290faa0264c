"""Round-trip fidelity of the PLY/TSV/JSON readers and writers."""

import numpy as np
import pytest

from forestseg import io
from forestseg.core import PointCloud
from forestseg.errors import ParseError
from forestseg.merging import BlockPrediction, InstanceMask


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

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("x\ty\tz\tz\n0\t0\t0\t1\n")
        with pytest.raises(ParseError, match="twice.tsv: line 1: repeated column name 'z'"):
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

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("point_id\tinstance\tsemantic\tsemantic\n0\t1\t1\t2\n")
        with pytest.raises(ParseError, match="twice.tsv: line 1: repeated column name 'semantic'"):
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


class TestBlockFiles:
    def test_round_trip(self, tmp_path, rng):
        masks = [
            InstanceMask(point_ids=rng.choice(100, size=8, replace=False), score=0.75,
                         block_id=3, query_index=q)
            for q in range(4)
        ]
        semantic = (np.arange(10), rng.integers(0, 3, size=10))
        path = tmp_path / "block_00003.json"
        io.write_block_file(path, BlockPrediction(block_id=3, center_xy=(8.0, 4.0), radius=16.0,
                                                  masks=masks, semantic=semantic))
        loaded = io.read_block_file(path)
        assert loaded.block_id == 3
        assert loaded.center_xy == (8.0, 4.0)
        assert loaded.radius == 16.0
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
        io.write_block_file(path, BlockPrediction(block_id=7, center_xy=(8.0, 0.25), radius=16.0,
                                                  masks=[mask], semantic=votes))
        assert path.read_text() == BLOCK_TEXT
        io.write_block_file(path, BlockPrediction(block_id=7, center_xy=(8.0, 0.25), radius=16.0, masks=[]))
        assert path.read_text() == (
            '{\n  "block_id": 7,\n  "center": [\n    8.0,\n    0.25\n  ],\n  "masks": [],\n  "radius": 16.0\n}\n'
        )

    @pytest.mark.parametrize("center, radius", [
        ("[0, 0]", "-16"), ("[0, 0]", "0"), ("[0, 0]", "NaN"), ("[0, 0]", "Infinity"), ("[0, 0]", "1e200"),
        ("[NaN, 0]", "16"), ("[0, -Infinity]", "16"),
    ])
    def test_bad_geometry_rejected(self, tmp_path, center, radius):
        path = tmp_path / "block.json"
        path.write_text(f'{{"block_id": 0, "center": {center}, "radius": {radius}, "masks": []}}')
        with pytest.raises(ParseError, match="block.json: block center must be finite"):
            io.read_block_file(path)

    def test_minimal_schema_accepted(self, tmp_path):
        # query_index and semantic are optional in external files
        path = tmp_path / "block.json"
        path.write_text(
            '{"block_id": 0, "center": [1.0, 2.0], "radius": 16.0,'
            ' "masks": [{"score": 0.8, "point_ids": [3, 1, 2]}]}'
        )
        loaded = io.read_block_file(path)
        assert loaded.block_id == 0
        assert loaded.masks[0].query_index == 0
        assert loaded.masks[0].point_ids.tolist() == [1, 2, 3]
        assert loaded.semantic is None

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"block_id": 1,\n  "center": [0, 0\n}')
        with pytest.raises(ParseError, match="line"):
            io.read_block_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"block_id": 1}')
        with pytest.raises(ParseError, match="malformed"):
            io.read_block_file(path)

    @pytest.mark.parametrize("section", [
        '"masks": [{"score": 0.5, "point_ids": [99999999999999999999]}]',
        '"masks": [], "semantic": {"point_ids": [99999999999999999999], "classes": [1]}',
    ])
    def test_point_id_beyond_int64_rejected(self, tmp_path, section):
        path = tmp_path / "big.json"
        path.write_text(f'{{"block_id": 0, "center": [0, 0], "radius": 16, {section}}}')
        with pytest.raises(ParseError, match="big.json: malformed"):
            io.read_block_file(path)


BLOCK_TEXT = """\
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
