"""End-to-end pipeline behavior: identity, determinism, external predictors."""

import json

import numpy as np
import pytest

from forestseg import io
from forestseg.errors import ConfigError
from forestseg.merging import BlockPrediction, InstanceMask
from forestseg.pipeline import (
    PipelineConfig,
    effective_threads,
    make_oracle_predictor,
    merge_block_predictions,
    run_pipeline,
    run_pipeline_from_blocks,
)
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest
from forestseg.tiling import tile_cloud


@pytest.fixture(scope="module")
def forest():
    return generate_forest(ForestParams(n_trees=14, plot_size=14.0, ground_density=8.0, seed=21))


class TestPipelineIdentity:
    def test_zero_corruption_is_exact(self, forest):
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        ev = result.evaluation
        assert (ev.precision, ev.recall, ev.f1) == (1.0, 1.0, 1.0)
        assert ev.coverage == 1.0
        assert ev.miou == 1.0

    def test_labeling_matches_gt_up_to_bijection(self, forest):
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        pred = result.merge.instance
        gt = forest.instance
        assert np.array_equal(pred == 0, gt == 0)
        mapping = {}
        for p, g in zip(pred, gt):
            if p == 0:
                continue
            assert mapping.setdefault(p, g) == g
        assert len(set(mapping.values())) == len(mapping)

    def test_semantic_vote_reproduces_gt(self, forest):
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        assert np.array_equal(result.merge.semantic, forest.semantic)


class TestDeterminism:
    def test_same_seed_same_bytes(self, forest, tmp_path):
        reports = []
        for name in ("a", "b"):
            result = run_pipeline(forest, PipelineConfig(seed=5),
                                  corruption=CorruptionParams(split_prob=0.4, score_noise=0.05),
                                  threads=1)
            labels = tmp_path / f"{name}.tsv"
            report = tmp_path / f"{name}.json"
            io.write_labels_tsv(labels, result.merge.instance, result.merge.semantic)
            io.write_json(report, result.report)
            reports.append((labels.read_bytes(), report.read_bytes()))
        assert reports[0] == reports[1]

    def test_worker_counts_agree(self, forest):
        corr = CorruptionParams(split_prob=0.5, point_noise=0.3, score_noise=0.1)
        r1 = run_pipeline(forest, PipelineConfig(seed=9), corruption=corr, threads=1)
        r4 = run_pipeline(forest, PipelineConfig(seed=9), corruption=corr, threads=4)
        assert np.array_equal(r1.merge.instance, r4.merge.instance)
        assert json.dumps(r1.report, sort_keys=True) == json.dumps(r4.report, sort_keys=True)

    def test_block_order_irrelevant_to_merge(self, forest, rng):
        config = PipelineConfig(seed=2)
        predict = make_oracle_predictor(forest, CorruptionParams(split_prob=0.6), config.seed)
        predictions = [predict(b) for b in tile_cloud(forest, config.radius, config.stride)]
        reference = merge_block_predictions(predictions, forest.positions, config)
        for _ in range(3):
            shuffled = list(predictions)
            rng.shuffle(shuffled)
            outcome = merge_block_predictions(shuffled, forest.positions, config)
            assert np.array_equal(outcome.instance, reference.instance)
            assert np.array_equal(outcome.semantic, reference.semantic)

    def test_thread_env_cap(self, monkeypatch):
        # The environment no longer caps the worker count; --threads is the only setting.
        monkeypatch.setenv("FORESTSEG_THREADS", "2")
        assert effective_threads(8) == 8


class TestExternalPredictorInterface:
    def test_block_files_reproduce_oracle_run(self, forest, tmp_path):
        config = PipelineConfig(seed=3)
        corr = CorruptionParams(split_prob=0.3)
        direct = run_pipeline(forest, config, corruption=corr, threads=1)

        predict = make_oracle_predictor(forest, corr, config.seed)
        block_dir = tmp_path / "blocks"
        block_dir.mkdir()
        for block in tile_cloud(forest, config.radius, config.stride):
            io.write_block_file(block_dir / f"block_{block.block_id:05d}.json", predict(block))

        predictions = [io.read_block_file(path) for path in sorted(block_dir.glob("*.json"))]
        from_files = run_pipeline_from_blocks(predictions, forest, config)

        assert np.array_equal(from_files.merge.instance, direct.merge.instance)
        assert np.array_equal(from_files.merge.semantic, direct.merge.semantic)
        assert from_files.report == direct.report

    def test_blocks_without_semantic_skip_voting(self, forest):
        config = PipelineConfig()
        predict = make_oracle_predictor(forest, CorruptionParams(), config.seed)
        predictions = []
        for block in tile_cloud(forest, config.radius, config.stride):
            prediction = predict(block)
            prediction.semantic = None
            predictions.append(prediction)
        result = run_pipeline_from_blocks(predictions, forest, config)
        assert result.merge.semantic is None
        assert result.evaluation.miou is None
        assert result.evaluation.f1 == 1.0


class TestStageAccounting:
    def test_report_structure(self, forest):
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        report = result.report
        assert report["config"] == {"radius": 16.0, "stride": 4.0, "nms_iou": 0.3, "score_threshold": 0.4,
                                    "boundary_margin": 0.5, "seed": 0}
        counts = report["masks"]
        assert counts["predicted"] >= counts["after_boundary_discard"] >= counts["after_score_filter"]
        assert counts["after_score_filter"] >= counts["after_nms"]
        assert report["evaluation"]["instance"]["f1"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(radius=-1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(boundary_margin=20.0, radius=16.0)
        with pytest.raises(ConfigError):
            PipelineConfig(boundary_margin=16.0, radius=16.0)
        with pytest.raises(ConfigError):
            PipelineConfig(score_threshold=1.5)
        with pytest.raises(ConfigError):  # points midway between grid centers lie in no block
            PipelineConfig(radius=2.0, stride=8.0)
        PipelineConfig(radius=2.0, stride=2.8)

    def test_out_of_range_mask_points_rejected(self, forest):
        from forestseg.errors import ShapeMismatch

        bad = BlockPrediction(
            block_id=0,
            center_xy=(0.0, 0.0),
            radius=16.0,
            masks=[InstanceMask(point_ids=np.array([forest.n + 5]), score=0.9, block_id=0, query_index=0)],
        )
        with pytest.raises(ShapeMismatch):
            run_pipeline_from_blocks([bad], forest, PipelineConfig())

    @pytest.mark.parametrize("block_ids", [[0, 0], [-1], [10_000]])
    def test_block_ids_off_the_grid_rejected(self, forest, block_ids):
        from forestseg.errors import UnknownBlock

        bad = [BlockPrediction(block_id=i, center_xy=(0.0, 0.0), radius=16.0, masks=[]) for i in block_ids]
        with pytest.raises(UnknownBlock):
            run_pipeline_from_blocks(bad, forest, PipelineConfig())

    def test_mask_tagged_with_another_block_rejected(self):
        from forestseg.errors import UnknownBlock

        # Both points lie well inside block 0 and outside block 1, so
        # measuring the mask against block 1's footprint would drop it.
        positions = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [10.0, 0.0, 0.0]])
        stray = InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=1, query_index=0)
        predictions = [
            BlockPrediction(block_id=0, center_xy=(0.0, 0.0), radius=4.0, masks=[stray]),
            BlockPrediction(block_id=1, center_xy=(10.0, 0.0), radius=4.0, masks=[]),
        ]
        with pytest.raises(UnknownBlock, match="block 0 holds a mask of block 1"):
            merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))
