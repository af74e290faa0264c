"""CLI behavior: commands, exit codes, determinism of emitted files."""

import dataclasses
import errno
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from forestseg import cli, io
from forestseg.cli import main
from forestseg.core import PointCloud
from forestseg.merging import BlockMasks, BlockPrediction
from forestseg.pipeline import PipelineConfig
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest
from io_reference import reference_write_ascii_ply, reference_write_block_file

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

    # Every character ``str.splitlines`` breaks a line at besides "\n" and "\r".
    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_separator_in_comment_stays_in_its_line(self, runner, tmp_path, separator, forest_files):
        params, out = tmp_path / "params.txt", tmp_path / "plot.ply"
        params.write_bytes(PARAMS_TEXT.replace("desk-scale ", f"desk-scale{separator}").encode())
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert np.array_equal(io.read_ply(out).positions, forest_files[0].positions)
        params.write_bytes(f"# scanned{separator}by unit 2\nn_trees = 4\nplot_size = wide\n".encode())
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(out)])
        assert result.exit_code == 2
        assert "params.txt: line 3: bad value" in result.output

    def test_repeated_key_exits_2_and_names_both_lines(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("n_trees = 4\nplot_size = 10.0\nn_trees = 6\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 2
        assert "line 3: parameter 'n_trees' already set on line 1" in result.output
        assert not (tmp_path / "o.ply").exists()

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
        ("min_spacing = inf", "min_spacing"),
        pytest.param("n_trees = 1\nmin_spacing = inf", "min_spacing", id="one-tree-min_spacing=inf"),
        ("n_trees = 0", "n_trees"),
        ("understory_fraction = 1.5", "understory_fraction"),
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

    def test_line_without_equals_exits_2_and_names_line(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("# trees\nn_trees 4\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        assert result.exit_code == 2, result.output
        assert "params.txt: line 2: expected 'key = value', got 'n_trees 4'" in result.output
        assert not (tmp_path / "o.ply").exists()

    def test_seed_flag_overrides_params_file(self, runner, tmp_path):
        flagged, inline = tmp_path / "flagged.tsv", tmp_path / "inline.tsv"
        params = tmp_path / "params.txt"
        params.write_text(PARAMS_TEXT)
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(flagged), "--seed", "7"])
        assert result.exit_code == 0, result.output
        params.write_text(PARAMS_TEXT.replace("seed = 5", "seed = 7"))
        assert runner.invoke(main, ["synth", "--params", str(params), "--out", str(inline)]).exit_code == 0
        assert flagged.read_bytes() == inline.read_bytes()
        params.write_text(PARAMS_TEXT)
        assert runner.invoke(main, ["synth", "--params", str(params), "--out", str(inline)]).exit_code == 0
        assert flagged.read_bytes() != inline.read_bytes()


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
        reference_write_ascii_ply(ply, PointCloud(positions=rng.uniform(0.0, 10.0, size=(40_001, 3))))
        lines = ply.read_text().splitlines()
        end = lines.index("end_header") + 1
        lines[end + 39_999] = "1.0 oops 2.0"  # data row 40,000
        ply.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["pipeline", "--input", str(ply)])
        assert result.exit_code == 2
        assert f"deep.ply: line {end + 40_000}: could not convert string to float: 'oops'" in result.output

    @pytest.mark.parametrize("flags", [[], ["--split-prob", "0.5", "--point-noise", "0.3"]], ids=["clean", "noisy"])
    def test_text_and_binary_scenes_give_identical_outputs(self, runner, tmp_path, forest_files, flags):
        cloud, binary = forest_files
        reference_write_ascii_ply(tmp_path / "text.ply", cloud)
        io.write_tsv(tmp_path / "text.tsv", cloud)
        outputs = set()
        for scene in (binary, tmp_path / "text.ply", tmp_path / "text.tsv"):
            labels, report = tmp_path / f"{scene.name}.labels.tsv", tmp_path / f"{scene.name}.json"
            result = runner.invoke(main, ["pipeline", "--input", str(scene), *flags,
                                          "--out-labels", str(labels), "--out-report", str(report)])
            assert result.exit_code == 0, result.output
            outputs.add((labels.read_bytes(), report.read_bytes()))
        assert len(outputs) == 1

    def test_empty_binary_ply_exits_2(self, runner, tmp_path):
        ply = tmp_path / "empty.ply"
        io.write_ply(ply, PointCloud(positions=np.empty((0, 3))))
        result = runner.invoke(main, ["pipeline", "--input", str(ply)])
        assert result.exit_code == 2, result.output
        assert "error: cannot tile an empty point cloud" in result.output

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
        (["--split-prob", "1.5"], "split_prob"),
        (["--split-prob", "nan"], "split_prob"),
        (["--seed", "-1"], "seed"),
    ])
    def test_nan_infinite_and_negative_values_exit_3(self, runner, forest_files, flags, name):
        _, ply = forest_files
        result = runner.invoke(main, ["pipeline", "--input", str(ply), *flags])
        assert result.exit_code == 3, result.output
        assert f"{name} must" in result.output

    def test_oversized_grid_exits_3_before_it_is_built(self, runner, tmp_path):
        # Each grid below would need over 10^8 cells; it is rejected before numpy is asked for it.
        small = tmp_path / "small.ply"
        io.write_ply(small, generate_forest(ForestParams(n_trees=3, plot_size=6.0, seed=1)))
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        io.write_block_file(blocks / "block_00000.npz", BlockPrediction(block_id=0))
        params = tmp_path / "wide.txt"
        params.write_text("n_trees = 3\nplot_size = 100000\nground_density = 0\n")
        wide = tmp_path / "wide.ply"
        assert runner.invoke(main, ["synth", "--params", str(params), "--out", str(wide)]).exit_code == 0
        for flags in (["--input", str(small), "--stride", "0.0005"],
                      ["--input", str(small), "--stride", "0.0005", "--predictor", str(blocks)],
                      ["--input", str(wide)]):
            result = runner.invoke(main, ["pipeline", *flags, "--out-report", str(tmp_path / "r.json")])
            assert result.exit_code == 3, (flags, result.output)
            assert "block cells, more than the 1,000,000 allowed" in result.output
            assert not (tmp_path / "r.json").exists()

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

    def test_predictor_neither_oracle_nor_directory_exits_2(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(tmp_path / "none")])
        assert result.exit_code == 2, result.output
        assert f"error: predictor must be 'oracle' or a directory, got {str(tmp_path / 'none')!r}" in result.output

    def test_bad_predictor_exits_2_before_the_input_is_read(self, runner, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("not a ply\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("")
        (empty / "block_00000.npy").write_bytes(b"")
        for predictor, message in ((tmp_path / "none", f"predictor must be 'oracle' or a directory, got "
                                                       f"{str(tmp_path / 'none')!r}"),
                                   (bad, f"predictor must be 'oracle' or a directory, got {str(bad)!r}"),
                                   (empty, f"{empty}: no block files (*.npz, *.json) found"),
                                   # A name the OS refuses, and the empty name, though Path("") is "."
                                   ("a" * 300, f"predictor must be 'oracle' or a directory, got {'a' * 300!r}"),
                                   ("", "predictor must be 'oracle' or a directory, got ''")):
            result = runner.invoke(main, ["pipeline", "--input", str(bad), "--predictor", str(predictor)])
            assert result.exit_code == 2, result.output
            assert result.output == f"error: {message}\n"

    def test_unsupported_input_extension_exits_2(self, runner, tmp_path):
        las = tmp_path / "x.las"
        las.write_text("0 0 0\n")
        result = runner.invoke(main, ["pipeline", "--input", str(las)])
        assert result.exit_code == 2, result.output
        assert f"error: {las}: unsupported extension '.las', expected .ply or .tsv" in result.output

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

    def test_dumped_block_files_are_byte_identical_across_runs(self, runner, tmp_path, forest_files):
        # Nothing of the run, such as a zip member's timestamp, enters a block file.
        _, ply = forest_files
        dumps = [tmp_path / "first", tmp_path / "second"]
        for blocks in dumps:
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--split-prob", "0.5", "--dump-blocks",
                                          str(blocks)])
            assert result.exit_code == 0, result.output
        names = sorted(path.name for path in dumps[0].iterdir())
        assert names and all(name.endswith(".npz") for name in names)
        assert sorted(path.name for path in dumps[1].iterdir()) == names
        for name in names:
            assert (dumps[0] / name).read_bytes() == (dumps[1] / name).read_bytes(), name

    def test_directory_mixing_npz_and_json_blocks_merges_as_one(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"

        def run(name, *flags):
            report, labels = tmp_path / f"{name}.json", tmp_path / f"{name}.tsv"
            result = runner.invoke(main, ["pipeline", "--input", str(ply), *flags, "--out-report", str(report),
                                          "--out-labels", str(labels)])
            assert result.exit_code == 0, result.output
            return report.read_bytes(), labels.read_bytes()

        direct = run("direct", "--split-prob", "0.5", "--point-noise", "0.3", "--dump-blocks", str(blocks))
        for i, path in enumerate(sorted(blocks.glob("*.npz"))[::2]):  # every other block as JSON, compact or indented
            reference_write_block_file(path.with_suffix(".json"), io.read_block_file(path), indent=2 if i % 2 else None)
            path.unlink()
        assert any(blocks.glob("*.json")) and any(blocks.glob("*.npz"))
        assert run("mixed", "--predictor", str(blocks)) == direct
        # One block in both formats arrives twice.
        npz = sorted(blocks.glob("*.npz"))[0]
        reference_write_block_file(npz.with_suffix(".json"), io.read_block_file(npz))
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert f"block {io.read_block_file(npz).block_id} arrives twice" in result.output

    def test_block_file_suffixes_match_in_any_letter_case(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"

        def run(name, *flags):
            report, labels = tmp_path / f"{name}.json", tmp_path / f"{name}.tsv"
            result = runner.invoke(main, ["pipeline", "--input", str(ply), *flags, "--out-report", str(report),
                                          "--out-labels", str(labels)])
            assert result.exit_code == 0, result.output
            return report.read_bytes(), labels.read_bytes()

        direct = run("direct", "--dump-blocks", str(blocks))
        dumped = sorted(blocks.glob("*.npz"))
        for path in dumped[::2]:
            path.rename(path.with_suffix(".NPZ"))
        reference_write_block_file(dumped[1].with_suffix(".Json"), io.read_block_file(dumped[1]))
        dumped[1].unlink()
        assert len(io._block_files(blocks)) == len(dumped)
        assert run("replay", "--predictor", str(blocks)) == direct

    def test_legacy_footprint_keys_in_block_files_are_ignored(self, runner, tmp_path, forest_files):
        # Older JSON dumps wrote each block's center and radius; the merge takes
        # both from the block id and --radius, so even bogus values change nothing.
        _, ply = forest_files
        blocks, legacy = tmp_path / "blocks", tmp_path / "legacy"
        assert runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(blocks)]).exit_code == 0
        legacy.mkdir()
        for path in sorted(blocks.glob("*.npz")):
            json_path = legacy / f"{path.stem}.json"
            reference_write_block_file(json_path, io.read_block_file(path))
            payload = json.loads(json_path.read_text())
            json_path.write_text(json.dumps({**payload, "center": [1e300, "x"], "radius": -1}))
        outputs = []
        for directory in (blocks, legacy):
            report, labels = tmp_path / f"{directory.name}.json", tmp_path / f"{directory.name}.tsv"
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(directory),
                                          "--out-report", str(report), "--out-labels", str(labels)])
            assert result.exit_code == 0, result.output
            outputs.append((report.read_bytes(), labels.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_dump_blocks_into_directory_holding_block_files_exits_3(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()  # an existing empty directory is fine
        dump = ["pipeline", "--input", str(ply), "--dump-blocks", str(blocks)]
        assert runner.invoke(main, dump).exit_code == 0
        dumped = sorted(blocks.iterdir())
        assert dumped and all(path.suffix == ".npz" for path in dumped)
        bad = tmp_path / "bad.ply"
        bad.write_text("not a ply\n")
        # Checked before the input is read, so a bad input still exits 3.
        for argv in (dump + ["--radius", "8"], ["pipeline", "--input", str(bad), "--dump-blocks", str(blocks)]):
            result = runner.invoke(main, argv)
            assert result.exit_code == 3, result.output
            assert "already holds block files (*.npz, *.json)" in result.output
        assert sorted(blocks.iterdir()) == dumped
        # A JSON block file, which a replay reads too, is refused alike.
        json_only = tmp_path / "json-only"
        json_only.mkdir()
        reference_write_block_file(json_only / "block_00000.json", BlockPrediction(block_id=0))
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(json_only)])
        assert result.exit_code == 3, result.output
        assert sorted(json_only.iterdir()) == [json_only / "block_00000.json"]

    def test_dump_blocks_into_directory_holding_an_upper_case_block_file_exits_3(self, runner, tmp_path, forest_files):
        # A replay reads block files whose suffix is in any letter case, so such a file is refused too.
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        (blocks / "old.NPZ").write_bytes(b"")
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(blocks)])
        assert result.exit_code == 3, result.output
        assert "already holds block files (*.npz, *.json)" in result.output
        assert sorted(blocks.iterdir()) == [blocks / "old.NPZ"]

    def test_ply_label_table_exits_3_before_the_input_is_read(self, runner, tmp_path):
        bad = tmp_path / "bad.ply"
        bad.write_text("not a ply\n")
        labels = tmp_path / "labels.PLY"
        result = runner.invoke(main, ["pipeline", "--input", str(bad), "--out-labels", str(labels)])
        assert result.exit_code == 3, result.output
        assert "label tables are written as TSV" in result.output
        assert not labels.exists()

    def test_dump_blocks_directory_that_cannot_be_made_exits_2(self, runner, tmp_path, forest_files, monkeypatch):
        def refused(self, *args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(Path, "mkdir", refused)
        blocks = tmp_path / "blocks"
        result = runner.invoke(main, ["pipeline", "--input", str(forest_files[1]), "--dump-blocks", str(blocks)])
        assert result.exit_code == 2, result.output
        assert f"error: {blocks}: cannot create directory: Permission denied" in result.output

    def test_dump_blocks_through_a_file_is_a_usage_error(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        report = tmp_path / "report.json"
        # Rejected before any work is done, so no report is written.
        for target in (ply / "blocks", ply / "a" / "b", ply):
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(target),
                                          "--out-report", str(report)])
            assert result.exit_code == 2, result.output
            assert "Invalid value for '--dump-blocks'" in result.output
        assert not report.exists()
        nested = tmp_path / "new" / "deeper"
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(nested)])
        assert result.exit_code == 0, result.output
        assert any(nested.glob("*.npz"))

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
        io.write_block_file(blocks / "block_00000.npz", BlockPrediction(
            block_id=0, masks=BlockMasks.pack([tree_one], [0.9]),
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

    def test_repeated_query_index_exits_2(self, runner, tmp_path, forest_files):
        cloud, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        # Written as an external predictor might: the writer refuses such a block.
        trees = [np.flatnonzero(cloud.instance == uid) for uid in (1, 2)]
        np.savez(blocks / "block_00000.npz", block_id=0, query_index=[0, 0], mask_sizes=[len(ids) for ids in trees],
                 score=[0.9, 0.9], point_ids=np.concatenate(trees))
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "two masks with query index 0" in result.output

    def test_stop_iteration_from_the_block_reader_fails_the_run(self, runner, tmp_path, forest_files, monkeypatch):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        assert runner.invoke(main, ["pipeline", "--input", str(ply), "--dump-blocks", str(blocks)]).exit_code == 0
        read, calls = io.read_block_file, []

        def faulty_read(path):
            calls.append(path)
            if len(calls) == 3:
                raise StopIteration
            return read(path)

        monkeypatch.setattr(io, "read_block_file", faulty_read)
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 1
        assert isinstance(result.exception, RuntimeError) and "StopIteration" in str(result.exception)

    def test_out_of_range_score_names_file_and_mask(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        (blocks / "block_00000.json").write_text(
            '{"block_id":0,"masks":[{"point_ids":[1],"query_index":0,"score":1.5}]}\n'
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
        for name in ("block_00000.npz", "block_00001.npz"):
            io.write_block_file(blocks / name, BlockPrediction(block_id=0))
        (blocks / "block_00002.json").write_text('{"block_id": 2,\n')
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "block 0 arrives twice" in result.output
        assert "block_00002" not in result.output

    def test_vote_length_fault_names_the_block(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        blocks.mkdir()
        (blocks / "block_00000.json").write_text(
            '{"block_id":0,"masks":[],"semantic":{"classes":[0],"point_ids":[0,1]}}\n'
        )
        result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "block 0: per-block point_ids and classes lengths differ" in result.output

    def test_votes_repeating_a_point_exit_2(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        flags = ["--input", str(ply), "--radius", "8", "--stride", "4"]
        assert runner.invoke(main, ["pipeline", *flags, "--dump-blocks", str(blocks)]).exit_code == 0
        # Block 6 covers point 0; ten ground votes for it would outvote the wood votes of every other block.
        path = blocks / "block_00006.npz"
        with np.load(path) as archive:
            block = dict(archive)
        assert 0 in block["semantic_point_ids"]
        block["semantic_point_ids"] = np.r_[block["semantic_point_ids"], [0] * 10]
        block["semantic_classes"] = np.r_[block["semantic_classes"], [0] * 10]
        np.savez(path, **block)
        result = runner.invoke(main, ["pipeline", *flags, "--predictor", str(blocks)])
        assert result.exit_code == 2, result.output
        assert "block 6: semantic votes name point 0 more than once" in result.output

    def test_labelled_cloud_without_trees_writes_labels_and_report(self, runner, tmp_path, forest_files):
        cloud, _ = forest_files
        ground = tmp_path / "g.ply"
        zeros = np.zeros(cloud.n, dtype=np.int64)
        io.write_ply(ground, PointCloud(positions=cloud.positions, semantic=zeros, instance=zeros))
        labels, report = tmp_path / "labels.tsv", tmp_path / "report.json"
        result = runner.invoke(main, ["pipeline", "--input", str(ground), "--out-labels", str(labels),
                                      "--out-report", str(report)])
        assert result.exit_code == 0, result.output
        instance, semantic = io.read_labels_tsv(labels)
        assert not instance.any() and not semantic.any()
        assert "evaluation" not in json.loads(report.read_text())
        # Evaluating against such a cloud is what `evaluate` is asked for, so it still fails.
        result = runner.invoke(main, ["evaluate", "--pred", str(labels), "--gt", str(ground)])
        assert result.exit_code == 2
        assert "at least one ground-truth instance" in result.output

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

    @pytest.mark.parametrize("flags", [["--threshold", "0.9"], ["--noise-sigma", "0.1"], ["--seed", "1"]])
    def test_isa_only_flags_exit_3_with_fps(self, runner, forest_files, flags):
        result = runner.invoke(main, ["select-queries", "--input", str(forest_files[1]), "--method", "fps", *flags])
        assert result.exit_code == 3, result.output
        assert "--threshold, --noise-sigma and --seed apply only to --method isa" in result.output

    def test_fps_builds_no_embedding_field(self, runner, forest_files, monkeypatch):
        monkeypatch.setattr(cli, "oracle_embeddings", lambda *args, **kwargs: pytest.fail("built an embedding field"))
        # A flag given its default value changes nothing, so it is accepted.
        result = runner.invoke(main, ["select-queries", "--input", str(forest_files[1]), "--method", "fps",
                                      "--k", "20", "--threshold", "0.5"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["k_selected"] == 20

    def test_separation_flag_is_unknown(self, runner, forest_files):
        # The oracle codes are always spaced by the push margin 2 * DELTA_D.
        result = runner.invoke(main, ["select-queries", "--input", str(forest_files[1]), "--separation", "3.0"])
        assert result.exit_code == 2 and "No such option" in result.output


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

    def test_gt_cloud_without_instance_exits_2(self, runner, tmp_path, rng):
        pred, gt = tmp_path / "pred.tsv", tmp_path / "bare.ply"
        io.write_labels_tsv(pred, np.array([1, 1, 0]))
        io.write_ply(gt, PointCloud(positions=rng.normal(size=(3, 3))))
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt)])
        assert result.exit_code == 2, result.output
        assert f"error: {gt}: no instance labels present" in result.output

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

    @pytest.mark.parametrize("rows, message", [
        ("0\t1\t1\n1\t-3\t0\n2\t0\t0\n", "line 3: instance ids must be >= 0, got -3"),
        ("0\t1\t7\n1\t0\t0\n2\t0\t0\n", "line 2: semantic classes must be in"),
    ])
    @pytest.mark.parametrize("bad_side", ["--pred", "--gt"])
    def test_invalid_label_values_exit_2(self, runner, tmp_path, rows, message, bad_side):
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        io.write_labels_tsv(good, [1, 0, 0], [1, 0, 0])
        bad.write_text("point_id\tinstance\tsemantic\n" + rows)
        files = {"--pred": good, "--gt": good, bad_side: bad}
        result = runner.invoke(main, ["evaluate", "--pred", str(files["--pred"]), "--gt", str(files["--gt"])])
        assert result.exit_code == 2, result.output
        assert f"bad.tsv: {message}" in result.output

    def test_bad_iou_checked_before_lengths(self, runner, tmp_path):
        pred = tmp_path / "pred.tsv"
        gt = tmp_path / "gt.tsv"
        io.write_labels_tsv(pred, np.array([1, 1]))
        io.write_labels_tsv(gt, np.array([1, 1, 2]))
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt), "--iou", "1.5"])
        assert result.exit_code == 3, result.output


UNUSABLE_VALUES = [
    ("evaluate", ["--iou", "nan"], "IoU threshold"),
    ("evaluate", ["--iou", "1.5"], "IoU threshold"),
    ("select-queries", ["--noise-sigma", "-1"], "noise_sigma"),
    ("select-queries", ["--noise-sigma", "nan"], "noise_sigma"),
    ("select-queries", ["--threshold", "1.5"], "threshold"),
    ("select-queries", ["--seed", "-1"], "seed"),
    ("gradcheck", ["--trials", "0"], "trials"),
    ("gradcheck", ["--seed", "-1"], "seed"),
    ("select-queries", ["--resolution", "1e-300"], "resolution"),
    ("select-queries", ["--resolution", "0"], "resolution"),
    ("select-queries", ["--k", "0"], "k"),
    ("select-queries", ["--resolution", "-0.2"], "resolution"),
    ("select-queries", ["--resolution", "inf"], "resolution"),
]


@pytest.mark.parametrize("command, flags, name", UNUSABLE_VALUES)
def test_unusable_values_exit_3(runner, tmp_path, forest_files, command, flags, name):
    _, ply = forest_files
    inputs = {"evaluate": ["--pred", str(ply), "--gt", str(ply)], "select-queries": ["--input", str(ply)]}
    result = runner.invoke(main, [command, *inputs.get(command, []), *flags])
    assert result.exit_code == 3, result.output
    assert f"{name} must" in result.output


# A resolution too fine for the cloud's coordinates is known only once the cloud is read.
@pytest.mark.parametrize("command, flags, name", [case for case in UNUSABLE_VALUES
                                                  if case[0] != "gradcheck" and "1e-300" not in case[1]])
def test_unusable_values_exit_3_before_a_malformed_input_is_read(runner, tmp_path, command, flags, name):
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    inputs = {"evaluate": ["--pred", str(bad), "--gt", str(bad)], "select-queries": ["--input", str(bad)]}
    result = runner.invoke(main, [command, *inputs[command], *flags])
    assert result.exit_code == 3, result.output
    assert f"{name} must" in result.output


@pytest.mark.parametrize("command, inputs, flags", [
    ("synth", ["--params"], ["--out"]),
    ("pipeline", ["--input"], ["--out-labels", "--out-report"]),
    ("select-queries", ["--input"], ["--out"]),
    ("evaluate", ["--pred", "--gt"], ["--out"]),
    ("gradcheck", [], ["--out"]),
])
def test_output_in_missing_directory_is_a_usage_error(runner, tmp_path, forest_files, command, inputs, flags):
    _, ply = forest_files
    args = _command_args(command, inputs, tmp_path, ply)
    for flag in flags:
        # Rejected before any work is done, as a directory given here already is.
        for parent in (tmp_path / "missing", ply):
            result = runner.invoke(main, [*args, flag, str(parent / "out.tsv")])
            assert result.exit_code == 2, result.output
            assert f"Invalid value for '{flag}'" in result.output
            assert "is not an existing directory" in result.output
        result = runner.invoke(main, [*args, flag, str(tmp_path)])
        assert result.exit_code == 2 and f"Invalid value for '{flag}'" in result.output
    assert not (tmp_path / "missing").exists()


def _command_args(command, inputs, tmp_path, ply):
    """``command`` with each input flag given the params file (``--params``) or the cloud."""
    params = tmp_path / "params.txt"
    params.write_text(PARAMS_TEXT)
    args = [command]
    for flag in inputs:
        args += [flag, str(params if flag == "--params" else ply)]
    return args


@pytest.mark.parametrize("command, inputs, flag", [
    ("synth", ["--params"], "--out"),
    ("pipeline", ["--input"], "--out-labels"),
    ("pipeline", ["--input"], "--out-report"),
    ("pipeline", ["--input"], "--dump-blocks"),
    ("select-queries", ["--input"], "--out"),
    ("evaluate", ["--pred", "--gt"], "--out"),
    ("gradcheck", [], "--out"),
])
def test_output_name_the_os_refuses_exits_2(runner, tmp_path, forest_files, monkeypatch, command, inputs, flag):
    # No common file system takes a name over 255 bytes; unlike permission bits, that holds for root too.
    # The option type rejects the 300-byte name, so the command body never runs and no file is made.
    args = _command_args(command, inputs, tmp_path, forest_files[1])
    monkeypatch.setattr(main.commands[command], "callback", lambda **_: pytest.fail("the command body ran"))
    before = sorted(tmp_path.iterdir())
    out = tmp_path / ("a" * 296 + ".tsv")
    result = runner.invoke(main, [*args, flag, str(out)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}'" in result.output and "File name too long" in result.output
    assert sorted(tmp_path.iterdir()) == before


class TestGradcheckCommand:
    def test_all_losses_pass(self, runner):
        result = runner.invoke(main, ["gradcheck", "--trials", "5"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["all_pass"] is True
        assert set(payload["losses"]) == {"bce", "dice", "score", "binary", "sem", "disc"}
        assert (payload["h"], payload["tolerance"]) == (1e-05, 0.0001)
        for entry in payload["losses"].values():
            assert entry["pass"] is True

    def test_a_failed_check_exits_4_after_printing_the_report(self, runner, monkeypatch):
        report = {"all_pass": False, "losses": {"bce": {"pass": False}}}
        monkeypatch.setattr(cli, "run_gradient_checks", lambda trials, seed: report)
        result = runner.invoke(main, ["gradcheck", "--trials", "1"])
        assert result.exit_code == 4, result.output
        assert json.loads(result.output) == report


class TestUnreadableTextInputs:
    """Every text input is read as UTF-8 through one helper: a byte that does
    not decode is reported by the parser on its line, and a path that cannot
    be read as a file is a ParseError naming it. Both exit 2."""

    @staticmethod
    def assert_parse_error(result, message):
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and message in result.output

    def test_binary_ply(self, runner, tmp_path, forest_files):
        # A binary PLY's rows are not text: they need not decode, and rows cut short are a fault of the file's size.
        _, ply = forest_files
        data = ply.read_bytes()
        with pytest.raises(UnicodeDecodeError):
            data.decode()
        ply.write_bytes(data[:-1])
        result = runner.invoke(main, ["pipeline", "--input", str(ply)])
        self.assert_parse_error(result, f"{ply}: a ")
        assert f"but the file holds {len(data) - 1}\n" in result.output

    def test_tsv_cloud(self, runner, tmp_path):
        tsv = tmp_path / "latin.tsv"
        tsv.write_bytes(b"x\ty\tz\n0\t0\t0\n1\t\xe9\t1\n")
        result = runner.invoke(main, ["pipeline", "--input", str(tsv)])
        self.assert_parse_error(result, "latin.tsv: line 3: could not convert string to float")

    def test_label_table(self, runner, tmp_path):
        pred, gt = tmp_path / "pred.tsv", tmp_path / "gt.tsv"
        io.write_labels_tsv(gt, np.array([1, 1, 2]))
        pred.write_bytes(b"point_id\tinstance\n0\t1\n1\t\xff\n2\t2\n")
        result = runner.invoke(main, ["evaluate", "--pred", str(pred), "--gt", str(gt)])
        self.assert_parse_error(result, "pred.tsv: line 3: invalid literal for int")

    def test_block_file(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        blocks = tmp_path / "blocks"
        flags = ["--input", str(ply), "--radius", "8", "--stride", "4"]
        assert runner.invoke(main, ["pipeline", *flags, "--dump-blocks", str(blocks)]).exit_code == 0
        path = blocks / "block_00000.json"  # JSON block files are still a text input
        reference_write_block_file(path, io.read_block_file(blocks / "block_00000.npz"))
        (blocks / "block_00000.npz").unlink()
        path.write_bytes(b"\xff" + path.read_bytes())
        result = runner.invoke(main, ["pipeline", *flags, "--predictor", str(blocks)])
        self.assert_parse_error(result, "block_00000.json: line 1: Expecting value")

    def test_synth_params(self, runner, tmp_path):
        params = tmp_path / "params.txt"
        params.write_bytes(b"# r\xe9glages\nn_trees = 4\nplot_size = 1\xb70\n")
        result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "o.ply")])
        self.assert_parse_error(result, "params.txt: line 3: bad value")

    def test_directory_named_as_a_block_file(self, runner, tmp_path, forest_files):
        _, ply = forest_files
        for name in ("block_00000.json", "block_00000.npz"):
            blocks = tmp_path / name.replace(".", "_")
            (blocks / name).mkdir(parents=True)
            result = runner.invoke(main, ["pipeline", "--input", str(ply), "--predictor", str(blocks)])
            self.assert_parse_error(result, f"{name}: cannot read: ")
