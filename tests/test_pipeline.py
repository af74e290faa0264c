"""End-to-end pipeline behavior: identity, determinism, external predictors."""

import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import io, pipeline
from forestseg.core import N_CLASSES
from forestseg.errors import ConfigError, ForestSegError, UnknownBlock
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
from forestseg.tiling import sliding_window_centers, tile_cloud
from pipeline_reference import reference_check_block_ids, reference_merge_block_predictions


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
        bad = [BlockPrediction(block_id=i, center_xy=(0.0, 0.0), radius=16.0, masks=[]) for i in block_ids]
        with pytest.raises(UnknownBlock):
            run_pipeline_from_blocks(bad, forest, PipelineConfig())

    def test_mask_tagged_with_another_block_rejected(self):
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

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_repeated_mask_key_rejected(self, order):
        # The two masks tie on (score, block id, query index), so without the
        # check the labelling would follow their order inside the prediction.
        twins = [InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=0, query_index=0),
                 InstanceMask(point_ids=np.array([1, 2]), score=0.9, block_id=0, query_index=0)]
        if order == "reversed":
            twins.reverse()
        prediction = BlockPrediction(block_id=0, center_xy=(0.0, 0.0), radius=4.0, masks=twins)
        with pytest.raises(UnknownBlock, match="block 0 holds two masks with query index 0"):
            merge_block_predictions([prediction], np.zeros((4, 3)), PipelineConfig(radius=4.0, stride=4.0))

    def test_repeated_block_id_rejected_even_with_distinct_query_indices(self):
        # The two footprints differ: measured against the last one, the
        # first mask would be dropped though it lies inside its own block.
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [20.0, 0.0, 0.0], [21.0, 0.0, 0.0]])
        predictions = [
            BlockPrediction(block_id=0, center_xy=(0.0, 0.0), radius=4.0,
                            masks=[InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=0, query_index=0)]),
            BlockPrediction(block_id=0, center_xy=(20.0, 0.0), radius=4.0,
                            masks=[InstanceMask(point_ids=np.array([2, 3]), score=0.9, block_id=0, query_index=1)]),
        ]
        with pytest.raises(UnknownBlock, match="block 0 arrives twice"):
            merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))


FAULTS = ["repeated_block", "off_grid", "foreign_mask", "point_out_of_range", "repeated_query",
          "vote_shape", "vote_point", "vote_class"]


@st.composite
def merge_cases(draw):
    """Random predictions over a tiny scene, shuffled, with at most one kind of fault.

    Scores come from a few values so that ties are common; masks may be
    empty, blocks may carry no votes, and the margin, NMS and score
    thresholds include their edge values.
    """
    n_points = draw(st.integers(1, 24))
    xy = np.array(draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                min_size=n_points, max_size=n_points)), dtype=np.float64)
    positions = np.c_[xy, np.zeros(n_points)]
    stride = draw(st.sampled_from([2.0, 3.0, 5.0]))
    radius = stride * draw(st.sampled_from([1.0, 1.5]))
    config = PipelineConfig(radius=radius, stride=stride,
                            nms_iou=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                            score_threshold=draw(st.sampled_from([0.0, 0.4, 1.0])),
                            boundary_margin=draw(st.sampled_from([0.0, 0.5, 0.9 * radius])))
    n_grid = len(sliding_window_centers(xy.min(axis=0), xy.max(axis=0), stride))
    # An empty stream is valid too, but rarer than hypothesis would make it.
    min_blocks = draw(st.sampled_from([0, 1, 1, 1]))
    block_ids = draw(st.lists(st.integers(0, n_grid - 1), unique=True, min_size=min_blocks, max_size=min(n_grid, 6)))
    point_sets = st.sets(st.integers(0, n_points - 1), max_size=n_points)
    predictions = []
    for block_id in block_ids:
        center = xy[draw(st.integers(0, n_points - 1))] + draw(st.sampled_from([0.0, 0.5, 2.0]))
        # Masks mostly of points near the center, so that some survive boundary discard.
        near = np.flatnonzero(np.hypot(*(xy - center).T) <= radius - 0.5).tolist()
        mask_sets = st.sets(st.sampled_from(near)) if near else st.just(set())
        queries = draw(st.lists(st.integers(0, 7), unique=True, max_size=4))
        masks = [InstanceMask(point_ids=np.array(sorted(draw(st.one_of(mask_sets, point_sets))), dtype=np.int64),
                              score=draw(st.sampled_from([0.0, 0.4, 0.7, 1.0])), block_id=block_id, query_index=q)
                 for q in queries]
        semantic = None
        voters = draw(st.sampled_from([None, "all", "some"]))
        if voters is not None:
            pids = np.arange(n_points) if voters == "all" else np.array(sorted(draw(point_sets)), dtype=np.int64)
            classes = np.array(draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=len(pids), max_size=len(pids))),
                               dtype=np.int64)
            semantic = (pids, classes)
        predictions.append(BlockPrediction(block_id=block_id, center_xy=(center[0], center[1]), radius=radius,
                                           masks=masks, semantic=semantic))

    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS))) if predictions else None
    if fault is not None:
        victim = draw(st.sampled_from(predictions))
        block_id = victim.block_id
        if fault == "repeated_block":
            predictions.append(BlockPrediction(block_id=block_id, center_xy=(0.0, 0.0), radius=radius, masks=[]))
        elif fault == "off_grid":
            victim.block_id = draw(st.sampled_from([n_grid, -1]))
            for m in victim.masks:
                m.block_id = victim.block_id
        elif fault == "foreign_mask":
            victim.masks.append(InstanceMask(point_ids=np.array([0]), score=0.5, block_id=block_id + 1,
                                             query_index=8))
        elif fault == "point_out_of_range":
            victim.masks.append(InstanceMask(point_ids=np.array([draw(st.sampled_from([-1, n_points]))]),
                                             score=0.5, block_id=block_id, query_index=8))
        elif fault == "repeated_query":
            victim.masks += [InstanceMask(point_ids=np.array([0]), score=0.5, block_id=block_id, query_index=8)] * 2
        else:
            pids, classes = victim.semantic if victim.semantic is not None else (np.array([0]), np.array([0]))
            if fault == "vote_shape":
                classes = np.r_[classes, 0]
            elif fault == "vote_point":
                pids, classes = np.r_[pids, n_points], np.r_[classes, 0]
            else:
                pids, classes = np.r_[pids, 0], np.r_[classes, N_CLASSES]
            victim.semantic = (pids, classes)
    return positions, config, draw(st.permutations(predictions))


def _result_or_error(merge):
    try:
        return merge(), None
    except ForestSegError as exc:
        return None, type(exc)


def _mask_keys(masks):
    return [(m.block_id, m.query_index, m.score, m.point_ids.tolist()) for m in masks]


class TestStreamingMerge:
    @settings(max_examples=300, deadline=None)
    @given(case=merge_cases(), as_generator=st.booleans())
    def test_stream_matches_the_batch_reference(self, case, as_generator):
        positions, config, predictions = case

        def reference():
            reference_check_block_ids(predictions, positions, config)
            return reference_merge_block_predictions(predictions, positions, config)

        expected, expected_error = _result_or_error(reference)
        feed = (p for p in predictions) if as_generator else list(predictions)
        outcome, error = _result_or_error(lambda: merge_block_predictions(feed, positions, config))
        assert error is expected_error
        if expected is None:
            return
        assert np.array_equal(outcome.instance, expected.instance)
        if expected.semantic is None:
            assert outcome.semantic is None
        else:
            assert np.array_equal(outcome.semantic, expected.semantic)
        assert outcome.stage_counts() == expected.stage_counts()
        assert _mask_keys(outcome.masks_after_filter) == _mask_keys(expected.masks_after_filter)
        assert _mask_keys(outcome.masks_kept) == _mask_keys(expected.masks_kept)
        assert outcome.n_blocks == len(predictions)

    def test_each_prediction_is_freed_before_the_next_is_pulled(self):
        positions = np.c_[np.arange(12.0), np.zeros(12), np.zeros(12)]
        config = PipelineConfig(radius=4.0, stride=4.0)
        alive = []

        def predict(block_id):
            ids = np.array([4 * block_id, 4 * block_id + 1])
            prediction = BlockPrediction(
                block_id=block_id, center_xy=(4.0 * block_id, 0.0), radius=4.0,
                masks=[InstanceMask(point_ids=ids, score=0.9, block_id=block_id, query_index=0)],
                semantic=(np.arange(12), np.full(12, block_id % N_CLASSES)),
            )
            alive.append(weakref.ref(prediction))
            return prediction

        def stream():
            for block_id in range(3):
                assert all(ref() is None for ref in alive), "a merged prediction is still referenced"
                yield predict(block_id)
            assert all(ref() is None for ref in alive), "the last prediction is still referenced"

        outcome = merge_block_predictions(stream(), positions, config)
        assert outcome.n_blocks == 3
        assert outcome.stage_counts()["after_nms"] == 3

    def test_repeated_block_rejected_before_the_next_pull(self):
        pulls = 0

        def stream():
            nonlocal pulls
            while True:
                pulls += 1
                assert pulls < 3, "pulled past the repeated block"
                yield BlockPrediction(block_id=0, center_xy=(0.0, 0.0), radius=4.0, masks=[])

        with pytest.raises(UnknownBlock, match="block 0 arrives twice"):
            merge_block_predictions(stream(), np.zeros((4, 3)), PipelineConfig(radius=4.0, stride=4.0))
        assert pulls == 2

    def test_run_pipeline_frees_each_block_once_predicted(self, forest, monkeypatch):
        tiled = []
        tile, oracle = pipeline.tile_cloud, pipeline.oracle_predictor

        def recording_tile(*args):
            blocks = tile(*args)
            tiled.extend(weakref.ref(block) for block in blocks)
            return blocks

        def checking_oracle(block, *args, **kwargs):
            index = next(i for i, ref in enumerate(tiled) if ref() is block)
            assert all(ref() is None for ref in tiled[:index]), "a predicted block is still referenced"
            return oracle(block, *args, **kwargs)

        monkeypatch.setattr(pipeline, "tile_cloud", recording_tile)
        monkeypatch.setattr(pipeline, "oracle_predictor", checking_oracle)
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        assert result.n_blocks == len(tiled)
        assert all(ref() is None for ref in tiled)
