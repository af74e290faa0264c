"""CLI behavior: commands, exit codes, determinism of emitted files."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

from forestseg import io
from forestseg.cli import main
from forestseg.core import PointCloud
from forestseg.merging import BlockPrediction, InstanceMask
from forestseg.pipeline import PipelineConfig
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest

PARAMS_TEXT = """\
# desk-scale test forest
n_trees = 6
plot_size = 10.0
ground_density = 6.0
min_spacing = 1.2
seed = 5
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def forest_files(tmp_path):
    cloud = generate_forest(ForestParams(n_trees=6, plot_size=10.0, ground_density=6.0, min_spacing=1.2, seed=5))
    ply = tmp_path / "plot.ply"
    io.write_ply(ply, cloud)
    return cloud, ply


class TestSynth:
    def test_writes_cloud(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text(PARAMS_TEXT)
        out = tmp_path / "plot.ply"
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(out)])
        assert result.exit_code == 0, result.output
        cloud = io.read_ply(out)
        assert len(np.unique(cloud.instance[cloud.instance >= 1])) == 6

    def test_matches_library_generation(self, runner, tmp_path, forest_files):
        cloud, _ = forest_files
        params = tmp_path / "params.txt"
        params.write_text(PARAMS_TEXT)
        out = tmp_path / "cli.tsv"
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(out)])
        assert result.exit_code == 0
        assert np.array_equal(io.read_tsv(out).positions, cloud.positions)

    def test_unknown_key_exits_2(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("n_bushes = 4\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 2
        assert "n_bushes" in result.output

    @pytest.mark.parametrize("text", ["ground_density = 1e12\n", "n_trees = 12501\nmin_spacing = 0\n"])
    def test_point_count_past_cap_exits_3(self, runner, tmp_path, text):
        params = tmp_path / "params.txt"
        params.write_text(text)
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 3, result.output
        assert "10,000,000 points" in result.output

    def test_infeasible_spacing_exits_3(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("n_trees = 50\nplot_size = 2.0\nmin_spacing = 3.0\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("text, expected", [
        # Every key set away from its default: pins the key table derived from ForestParams.
        ("n_trees = 5\nplot_size = 12.5\ntrunk_height_min = 2.5\ntrunk_height_max = 5.0\n"
         "crown_radius_min = 0.6\ncrown_radius_max = 1.5\npoints_per_tree_min = 100\n"
         "points_per_tree_max = 250\nunderstory_fraction = 0.4\nground_density = 3.0\n"
         "min_spacing = 1.1\nseed = 7\n",
         ForestParams(n_trees=5, plot_size=12.5, trunk_height_range=(2.5, 5.0), crown_radius_range=(0.6, 1.5),
                      points_per_tree_range=(100, 250), understory_fraction=0.4, ground_density=3.0,
                      min_spacing=1.1, seed=7)),
        # One bound of a range keeps the default of the other.
        ("crown_radius_max = 2.5\n", ForestParams(crown_radius_range=(0.8, 2.5))),
    ], ids=["all-keys", "crown-radius-max-only"])
    def test_params_file_keys_match_forest_params(self, runner, tmp_path, text, expected):
        params = tmp_path / "params.txt"
        params.write_text(text)
        out = tmp_path / "cli.tsv"
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(out)])
        assert result.exit_code == 0, result.output
        cloud, library = io.read_tsv(out), generate_forest(expected)
        assert np.array_equal(cloud.positions, library.positions)
        assert np.array_equal(cloud.semantic, library.semantic)
        assert np.array_equal(cloud.instance, library.instance)

    @pytest.mark.parametrize("line, name", [
        ("plot_size = nan", "plot_size"),
        ("plot_size = inf", "plot_size"),
        ("trunk_height_min = nan", "trunk_height_range"),
        ("crown_radius_max = inf", "crown_radius_range"),
        ("ground_density = inf", "ground_density"),
        ("ground_density = nan", "ground_density"),
        ("min_spacing = nan", "min_spacing"),
        ("seed = -1", "seed"),
        pytest.param("points_per_tree_max = 1" + "0" * 400, "points_per_tree_range", id="points_per_tree_max=1e400"),
        pytest.param("ground_density = 1e300\nplot_size = 1e10", "ground_density", id="ground_point_count=inf"),
    ])
    def test_nan_infinite_and_negative_values_exit_3(self, runner, tmp_path, line, name):
        params = tmp_path / "params.txt"
        params.write_text(line + "\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 3, result.output
        assert f"{name} must" in result.output


class TestPipeline:
    def test_option_defaults_match_library_defaults(self):
        # A CLI run with no flags must equal a library run with default
        # PipelineConfig and CorruptionParams, so the two default sets agree.
        options = {param.name: param.default for param in main.commands["pipeline"].params}
        for dataclass_type in (PipelineConfig, CorruptionParams):
            for field in dataclasses.fields(dataclass_type):
                assert field.name in options, f"no pipeline option for {dataclass_type.__name__}.{field.name}"
                assert options[field.name] == field.default, field.name

    def test_oracle_identity_report(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        report_path = tmp_path / "report.json"
        labels_path = tmp_path / "labels.tsv"
        result = runner.invoke(main, [
            "pipeline", "--input", str(ply),
            "--out-report", str(report_path), "--out-labels", str(labels_path),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["evaluation"]["instance"]["f1"] == 1.0
        assert report["evaluation"]["semantic"]["miou"] == 1.0
        inst, sem = io.read_labels_tsv(labels_path)
        assert len(inst) == io.read_ply(ply).n

    def test_rerun_is_byte_identical(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        payloads = []
        for name in ("one", "two"):
            report_path = tmp_path / f"{name}.json"
            labels_path = tmp_path / f"{name}.tsv"
            result = runner.invoke(main, [
                "pipeline", "--input", str(ply), "--seed", "3", "--split-prob", "0.4",
                "--out-report", str(report_path), "--out-labels", str(labels_path),
            ])
            assert result.exit_code == 0
            payloads.append((report_path.read_bytes(), labels_path.read_bytes()))
        assert payloads[0] == payloads[1]

    def test_malformed_ply_exits_2_and_names_line(self, runner, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex nope\nend_header\n")
        result = runner.invoke(main, ["pipeline", "--input", str(bad)])
        assert result.exit_code == 2
        assert "line 3" in result.output

    def test_bad_token_deep_in_ply_exits_2_and_names_line(self, runner, tmp_path, rng):
        ply = tmp_path / "deep.ply"
        io.write_ply(ply, PointCloud(positions=rng.uniform(0.0, 10.0, size=(40_001, 3))))
        lines = ply.read_text().splitlines()
        end = lines.index("end_header") + 1
        lines[end + 39_999] = "1.0 oops 2.0"  # data row 40,000
        ply.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["pipeline", "--input", str(ply)])
        assert result.exit_code == 2
        assert f"deep.ply: line {end + 40_000}: could not convert string to float: 'oops'" in result.output

    def test_repeated_column_exits_2_and_names_line(self, runner, tmp_path):
        bad = tmp_path / "twice.tsv"
        bad.write_text("x\ty\tz\tz\n0\t0\t0\t1\n")
        result = runner.invoke(main, ["pipeline", "--input", str(bad)])
        assert result.exit_code == 2
        assert "line 1: repeated column name 'z'" in result.output

    def test_infeasible_config_exits_3(self, runner, forest_files):
        _, ply = forest_files
        for flags in (["--boundary-margin", "20.0"], ["--radius", "2", "--stride", "8"]):
            result = runner.invoke(main, ["pipeline", "--input", str(ply), *flags])
            assert result.exit_code == 3, flags

    @pytest.mark.parametrize("flags, name", [
        (["--stride", "nan"], "stride"),
        (["--radius", "nan"], "radius"),
        (["--radius", "inf"], "radius"),
        (["--radius", "1e308"], "radius"),
        (["--score-noise", "nan"], "score_noise"),
        (["--score-noise", "inf"], "score_noise"),
        (["--seed", "-1"], "seed"),
    ])
    def test_nan_infinite_and_negative_values_exit_3(self, runner, forest_files, flags, name):
        _, ply = forest_files
        result = runner.invoke(main, ["pipeline", "--input", str(ply), *flags])
        assert result.exit_code == 3, result.output
        assert f"{name} must" in result.output

    def test_bad_thread_count_exits_3_for_both_predictors(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        assert runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(blocks)]).exit_code == 0
        for predictor in ("oracle", str(blocks)):
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", predictor, "--threads", "0"])
            assert result.exit_code == 3, predictor
            assert "thread count" in result.output

    def test_removed_config_flags_are_unknown(self, runner, forest_files):
        _, ply = forest_files
        for flag in ("--resolution", "--k-queries", "--binary-threshold"):
            result = runner.invoke(main, ["pipeline", "--input", str(ply), flag, "1"])
            assert result.exit_code == 2 and "No such option" in result.output, flag

    def test_external_predictor_from_dumped_blocks(self, runner, tmp_path, forest_files):
        cloud, ply = forest_files
        # The same plot again 60 m along x leaves empty grid cells between the copies.
        twin = tmp_path / "twin.ply"
        io.write_ply(twin, PointCloud(
            positions=np.vstack([cloud.positions, cloud.positions + [60.0, 0.0, 0.0]]),
            semantic=np.r_[cloud.semantic, cloud.semantic],
            instance=np.r_[cloud.instance, np.where(cloud.instance > 0, cloud.instance + cloud.instance.max(), 0)],
        ))
        for scene, flags in ((ply, []), (twin, ["--radius", "8", "--stride", "4"])):
            outputs = {}
            for name, predictor in (("direct", ["--dump-blocks", str(tmp_path / scene.stem)]),
                                    ("replay", ["--predictor", str(tmp_path / scene.stem)])):
                report, labels = tmp_path / f"{scene.stem}_{name}.json", tmp_path / f"{scene.stem}_{name}.tsv"
                result = runner.invoke(main, [
                    "pipeline", "--input", str(scene), *flags, *predictor,
                    "--out-report", str(report), "--out-labels", str(labels),
                ])
                assert result.exit_code == 0, result.output
                outputs[name] = (report.read_bytes(), labels.read_bytes())
            assert outputs["replay"] == outputs["direct"]
        blocks = json.loads(outputs["replay"][0])["blocks"]
        assert blocks["empty_skipped"] > 0
        assert blocks["grid"] == blocks["processed"] + blocks["empty_skipped"]

    def test_oracle_only_flags_rejected_with_block_directory(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        corruption = ("--split-prob", "--merge-prob", "--drop-prob", "--point-noise", "--score-noise")
        for flags in [[flag, "0.1"] for flag in corruption] + [["--dump-blocks", str(tmp_path / "out")]]:
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks), *flags])
            assert result.exit_code == 3, flags
            assert "oracle predictor" in result.output

    def test_block_directory_single_block_passthrough(self, runner, tmp_path, forest_files):
        cloud, ply = forest_files
        tree_one = np.flatnonzero(cloud.instance == 1)
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        io.write_block_file(blocks / "block_00000.json", BlockPrediction(
            block_id=0, center_xy=(5.0, 5.0), radius=16.0,
            masks=[InstanceMask(point_ids=tree_one, score=0.9, block_id=0, query_index=0)],
        ))
        labels_path = tmp_path / "merged.tsv"
        result = runner.invoke(main, [
            "pipeline", "--input", str(ply), "--predictor", str(blocks),
            "--out-labels", str(labels_path), "--boundary-margin", "0.0",
        ])
        assert result.exit_code == 0, result.output
        inst, _ = io.read_labels_tsv(labels_path)
        assert set(np.flatnonzero(inst == 1).tolist()) == set(tree_one.tolist())
        assert np.sum(inst > 0) == len(tree_one)

    def test_block_narrower_than_margin_keeps_no_mask(self, runner, tmp_path, forest_files):
        cloud, ply = forest_files
        center = cloud.positions[0, :2]
        near = np.flatnonzero(np.hypot(*(cloud.positions[:, :2] - center).T) <= 0.2)
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        io.write_block_file(blocks / "block_00000.json", BlockPrediction(
            block_id=0, center_xy=(float(center[0]), float(center[1])), radius=0.3,
            masks=[InstanceMask(point_ids=near, score=0.9, block_id=0, query_index=0)],
        ))
        result = runner.invoke(main, [
            "pipeline", "--input", str(ply), "--predictor", str(blocks), "--boundary-margin", "0.5",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["masks"]["after_boundary_discard"] == 0

    def test_repeated_query_index_exits_2(self, runner, tmp_path, forest_files):
        cloud, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        io.write_block_file(blocks / "block_00000.json", BlockPrediction(
            block_id=0, center_xy=(5.0, 5.0), radius=16.0,
            masks=[InstanceMask(point_ids=np.flatnonzero(cloud.instance == uid), score=0.9, block_id=0, query_index=0)
                   for uid in (1, 2)],
        ))
        assert [m.query_index for m in io.read_block_file(blocks / "block_00000.json").masks] == [0, 0]
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "two masks with query index 0" in result.output

    def test_out_of_range_score_names_file_and_mask(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        (blocks / "block_00000.json").write_text(
            '{"block_id":0,"center":[5.0,5.0],"masks":[{"point_ids":[1],"query_index":0,"score":1.5}],"radius":16.0}\n'
        )
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert ("block_00000.json: malformed block file: masks[0]: mask score must be in [0, 1], got 1.5"
                in result.output)

    def test_first_fault_to_arrive_is_reported(self, runner, tmp_path, forest_files):
        # Files are read one at a time in sorted order, so the repeated block
        # id in the second file is found before the third file is opened.
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        for name in ("block_00000.json", "block_00001.json"):
            io.write_block_file(blocks / name, BlockPrediction(block_id=0, center_xy=(5.0, 5.0), radius=16.0, masks=[]))
        (blocks / "block_00002.json").write_text('{"block_id": 2,\n')
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "block 0 arrives twice" in result.output
        assert "block_00002" not in result.output

    def test_empty_block_directory_exits_2(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        empty = tmp_path / "none"
        empty.mkdir()
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(empty)])
        assert result.exit_code == 2


class TestSelectQueries:
    def test_emits_selection_and_stats(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        out = tmp_path / "sel.json"
        result = runner.invoke(main, [
            "select-queries", "--input", str(ply), "--k", "40", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["method"] == "isa"
        assert payload["k_selected"] == 40
        assert payload["tree_voxel_ratio"] == 1.0
        assert len(payload["voxel_indices"]) == 40

    def test_fps_baseline_method(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        result = runner.invoke(main, ["select-queries", "--input", str(ply), "--method", "fps", "--k", "20"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["method"] == "fps_euclidean"

    def test_unlabeled_cloud_exits_2(self, runner, tmp_path, rng):
        ply = tmp_path / "bare.ply"
        io.write_ply(ply, PointCloud(positions=rng.normal(size=(30, 3))))
        result = runner.invoke(main, ["select-queries", "--input", str(ply)])
        assert result.exit_code == 2


class TestEvaluateCommand:
    def test_identical_labels_score_one(self, runner, tmp_path, forest_files):
        cloud, _ = forest_files
        pred = tmp_path / "pred.tsv"
        gt = tmp_path / "gt.tsv"
        io.write_labels_tsv(pred, cloud.instance, cloud.semantic)
        io.write_labels_tsv(gt, cloud.instance, cloud.semantic)
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["instance"]["f1"] == 1.0
        assert payload["semantic"]["miou"] == 1.0
        assert payload["instance"]["completeness"] == 1.0

    def test_length_mismatch_exits_2(self, runner, tmp_path):
        pred = tmp_path / "pred.tsv"
        gt = tmp_path / "gt.tsv"
        io.write_labels_tsv(pred, np.array([1, 1]))
        io.write_labels_tsv(gt, np.array([1, 1, 2]))
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt)])
        assert result.exit_code == 2

    def test_duplicate_point_id_deep_in_table_exits_2_and_names_line(self, runner, tmp_path, rng):
        pred = tmp_path / "pred.tsv"
        gt = tmp_path / "gt.tsv"
        io.write_labels_tsv(gt, rng.integers(0, 5, size=50_000))
        lines = gt.read_text().splitlines()
        lines[45_000] = "17\t3"  # file line 45,001 repeats point_id 17
        pred.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt)])
        assert result.exit_code == 2
        assert "pred.tsv: line 45001: duplicate point_id 17" in result.output

    def test_bad_iou_checked_before_lengths(self, runner, tmp_path):
        pred = tmp_path / "pred.tsv"
        gt = tmp_path / "gt.tsv"
        io.write_labels_tsv(pred, np.array([1, 1]))
        io.write_labels_tsv(gt, np.array([1, 1, 2]))
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt), "--iou", "1.5"])
        assert result.exit_code == 3, result.output


@pytest.mark.parametrize("command, flags, name", [
    ("evaluate", ["--iou", "nan"], "IoU threshold"),
    ("evaluate", ["--iou", "1.5"], "IoU threshold"),
    ("select-queries", ["--noise-sigma", "-1"], "noise_sigma"),
    ("select-queries", ["--noise-sigma", "nan"], "noise_sigma"),
    ("select-queries", ["--separation", "nan"], "separation"),
    ("select-queries", ["--separation", "inf"], "separation"),
    ("select-queries", ["--seed", "-1"], "seed"),
    ("gradcheck", ["--trials", "0"], "trials"),
    ("gradcheck", ["--seed", "-1"], "seed"),
    ("select-queries", ["--resolution", "1e-300"], "resolution"),
])
def test_unusable_values_exit_3(runner, tmp_path, forest_files, command, flags, name):
    _, ply = forest_files
    inputs = {"evaluate": ["--pred", str(ply), "--gt", str(ply)], "select-queries": ["--input", str(ply)]}
    result = runner.invoke(main, [command, *inputs.get(command, []), *flags])
    assert result.exit_code == 3, result.output
    assert f"{name} must" in result.output


class TestGradcheckCommand:
    def test_all_losses_pass(self, runner):
        result = runner.invoke(main, ["gradcheck", "--trials", "5"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["all_pass"] is True
        assert set(payload["losses"]) == {"bce", "dice", "score", "binary", "sem", "disc"}
        for entry in payload["losses"].values():
            assert entry["pass"] is True
