"""End-to-end pipeline behavior: identity, determinism, external predictors."""

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import io, merging, pipeline
from forestseg.core import GROUND, N_CLASSES, WOOD, PointCloud
from forestseg.errors import ConfigError, EmptyInput, ForestSegError, InvalidLabel, ShapeMismatch, UnknownBlock
from forestseg.merging import BlockMasks, BlockPrediction
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
from merging_reference import InstanceMask, mask_keys, table_objects
from metrics_reference import reference_evaluate_labels
from pipeline_reference import ReferencePrediction, reference_check_block_ids, reference_merge_block_predictions
from synthgen_reference import reference_cylinder_crop, reference_oracle_predictor


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
        results = [run_pipeline(forest, PipelineConfig(seed=9), corruption=corr, threads=k) for k in (1, 2, 4)]
        for other in results[1:]:
            assert np.array_equal(results[0].merge.instance, other.merge.instance)
            assert json.dumps(results[0].report, sort_keys=True) == json.dumps(other.report, sort_keys=True)

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
        # Every block is predicted in the calling thread, whatever the request or the environment.
        monkeypatch.setenv("FORESTSEG_THREADS", "2")
        assert effective_threads(8) == 1
        with pytest.raises(ConfigError, match="thread count"):
            effective_threads(0)


class TestExternalPredictorInterface:
    def test_block_files_reproduce_oracle_run(self, forest, tmp_path):
        config = PipelineConfig(seed=3)
        corr = CorruptionParams(split_prob=0.3)
        direct = run_pipeline(forest, config, corruption=corr, threads=1)

        predict = make_oracle_predictor(forest, corr, config.seed)
        block_dir = tmp_path / "blocks"
        block_dir.mkdir()
        for block in tile_cloud(forest, config.radius, config.stride):
            io.write_block_file(block_dir / f"block_{block.block_id:05d}.npz", predict(block))

        predictions = [io.read_block_file(path) for path in sorted(block_dir.glob("*.npz"))]
        from_files = run_pipeline_from_blocks(predictions, forest, config)

        assert np.array_equal(from_files.merge.instance, direct.merge.instance)
        assert np.array_equal(from_files.merge.semantic, direct.merge.semantic)
        assert from_files.report == direct.report

    def test_blocks_without_semantic_skip_voting(self, forest):
        config = PipelineConfig()
        predict = make_oracle_predictor(forest, CorruptionParams(), config.seed)
        predictions = []
        for block in tile_cloud(forest, config.radius, config.stride):
            predictions.append(dataclasses.replace(predict(block), semantic=None))
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

    @pytest.mark.parametrize("seed", [1.5, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
            PipelineConfig(seed=seed)

    def test_numpy_integer_seed_gives_a_report(self, forest, tmp_path):
        config = PipelineConfig(seed=np.int64(3))
        assert type(config.seed) is int
        report = tmp_path / "report.json"
        io.write_json(report, run_pipeline(forest, config).report)
        assert json.loads(report.read_text())["config"]["seed"] == 3

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput, match="cannot merge predictions over an empty point cloud"):
            merge_block_predictions([BlockPrediction(block_id=0)], np.empty((0, 3)), PipelineConfig())

    def test_out_of_range_mask_points_rejected(self, forest):
        from forestseg.errors import ShapeMismatch

        bad = BlockPrediction(block_id=0, masks=BlockMasks.pack([[forest.n + 5]], [0.9]))
        with pytest.raises(ShapeMismatch, match=rf"^block 0: masks reference points outside 0\.\.{forest.n - 1}$"):
            run_pipeline_from_blocks([bad], forest, PipelineConfig())

    @pytest.mark.parametrize("block_ids", [[0, 0], [-1], [10_000]])
    def test_block_ids_off_the_grid_rejected(self, forest, block_ids):
        bad = [BlockPrediction(block_id=i) for i in block_ids]
        with pytest.raises(UnknownBlock):
            run_pipeline_from_blocks(bad, forest, PipelineConfig())

    @pytest.mark.parametrize("block_id", [1.5, True, "3"])
    def test_non_integer_block_ids_rejected(self, forest, block_id):
        # 1.5 would pass the grid's range check, and True would index the grid centers as a mask.
        with pytest.raises(UnknownBlock, match=f"block id {block_id!r} is not an integer"):
            run_pipeline_from_blocks([BlockPrediction(block_id=block_id)], forest, PipelineConfig())

    def test_numpy_integer_block_id_merges(self, forest):
        config = PipelineConfig()
        block = next(block for block in tile_cloud(forest, config.radius, config.stride) if block.block_id == 3)
        prediction = make_oracle_predictor(forest, CorruptionParams(), config.seed)(block)
        results = [run_pipeline_from_blocks([dataclasses.replace(prediction, block_id=block_id, semantic=None)], forest, config)
                   for block_id in (3, np.int64(3))]
        assert results[1].report == results[0].report
        assert np.array_equal(results[1].merge.instance, results[0].merge.instance)

    @pytest.mark.parametrize("holder, kept", [(0, [(0, 0)]), (3, [])])
    def test_masks_are_measured_against_the_footprint_of_the_block_holding_them(self, holder, kept):
        # Both points lie well inside block 0 (centered at x = 0) and outside block 3 (x = 12). A mask takes
        # its block id from the prediction holding it, so block 0 keeps the mask and block 3 discards it.
        positions = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [12.0, 0.0, 0.0]])
        predictions = [BlockPrediction(block_id=b, masks=BlockMasks.pack([[0, 1]] if b == holder else [],
                                                                          [0.9] if b == holder else []))
                       for b in (0, 3)]
        outcome = merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))
        rows = outcome.masks_after_filter
        assert list(zip(rows.block_id.tolist(), rows.query_index.tolist())) == kept

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_repeated_mask_key_rejected(self, order):
        # The two masks tie on (score, block id, query index), so without the
        # check the labelling would follow their order inside the prediction.
        twins = [[0, 1], [1, 2]]
        if order == "reversed":
            twins.reverse()
        with pytest.raises(UnknownBlock, match="block 0 holds two masks with query index 0"):
            prediction = BlockPrediction(block_id=0, masks=BlockMasks.pack(twins, [0.9, 0.9], [0, 0]))
            merge_block_predictions([prediction], np.zeros((4, 3)), PipelineConfig(radius=4.0, stride=4.0))

    def test_repeated_block_id_rejected_even_with_distinct_query_indices(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        predictions = [
            BlockPrediction(block_id=0, masks=BlockMasks.pack([[0, 1]], [0.9], [0])),
            BlockPrediction(block_id=0, masks=BlockMasks.pack([[2, 3]], [0.9], [1])),
        ]
        with pytest.raises(UnknownBlock, match="block 0 arrives twice"):
            merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))


    @pytest.mark.parametrize("fault, error, message", [
        ("length", ShapeMismatch, "block 2: per-block point_ids and classes lengths differ"),
        ("class", InvalidLabel, "block 2: semantic votes name an invalid class"),
        ("point", ShapeMismatch, r"block 2: semantic votes reference points outside 0\.\.11"),
        ("repeat", ShapeMismatch, "block 2: semantic votes name point 3 more than once"),
        ("sorted_repeat", ShapeMismatch, "block 2: semantic votes name point 3 more than once"),
    ])
    def test_vote_error_names_its_block(self, fault, error, message):
        positions = np.c_[np.arange(12.0), np.zeros(12), np.zeros(12)]
        pids, classes = np.arange(12), np.zeros(12, dtype=np.int64)
        bad = {"length": (pids, classes[:-1]), "class": (pids, np.r_[classes[:-1], N_CLASSES]),
               "point": (np.r_[pids[:-1], 12], classes), "repeat": (np.r_[pids, 3], np.r_[classes, 1]),
               "sorted_repeat": (np.sort(np.r_[pids, 3]), np.r_[classes, 1])}[fault]
        with pytest.raises(error, match=message):
            predictions = [BlockPrediction(block_id=b, semantic=bad if b == 2 else (pids, classes))
                           for b in range(3)]
            merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))

    def test_one_block_cannot_outvote_the_others_by_repeating_a_point(self):
        cloud = generate_forest(ForestParams(n_trees=6, plot_size=10.0, ground_density=6.0, min_spacing=1.2, seed=5))
        config = PipelineConfig(radius=8.0, stride=4.0)
        predict = make_oracle_predictor(cloud, CorruptionParams(), config.seed)
        predictions = [predict(b) for b in tile_cloud(cloud, config.radius, config.stride)]
        covering = [p for p in predictions if 0 in p.semantic[0]]
        assert cloud.semantic[0] == WOOD and len(covering) > 1
        pids, classes = covering[0].semantic
        repeats = len(covering)
        repeated = (np.r_[pids, [0] * repeats], np.r_[classes, [GROUND] * repeats])
        # Counted, the repeats would turn point 0 to ground; the prediction refuses them when built.
        point_ids, classes_per_block = [p.semantic[0] for p in predictions], [p.semantic[1] for p in predictions]
        index = predictions.index(covering[0])
        point_ids[index], classes_per_block[index] = repeated
        with pytest.raises(ShapeMismatch, match=f"block {index}: semantic votes name point 0 more than once"):
            merging.semantic_vote_arrays(point_ids, classes_per_block, cloud.n)
        with pytest.raises(ShapeMismatch, match=f"block {covering[0].block_id}: semantic votes name point 0 more than once"):
            dataclasses.replace(covering[0], semantic=repeated)

    def test_labelled_cloud_without_trees_is_not_evaluated(self, forest):
        ground = PointCloud(positions=forest.positions, semantic=np.zeros(forest.n, dtype=np.int64),
                            instance=np.zeros(forest.n, dtype=np.int64))
        result = run_pipeline(ground, PipelineConfig(), threads=1)
        assert result.evaluation is None
        assert "evaluation" not in result.report
        assert np.array_equal(result.merge.semantic, ground.semantic)
        assert result.report["masks"]["predicted"] == 0

FAULTS = ["repeated_block", "off_grid", "point_out_of_range", "repeated_query", "score_out_of_range",
          "non_integer_ids", "vote_shape", "vote_point", "vote_class", "vote_repeat"]


@st.composite
def merge_cases(draw):
    """Random blocks over a tiny scene, as plain lists, shuffled, with at most one kind of fault.

    A block is ``(block_id, masks, semantic)``, each mask ``(ids, score,
    query index)``. Each block's masks are drawn mostly from the points near
    its grid center, so that some survive boundary discard. A mask's ids may
    be unsorted and repeat a point, masks may be empty and come out of query
    order, a few point sets recur across blocks, and scores come from a few
    values, so that ties are common. Blocks may carry no votes, and the
    margin, NMS and score thresholds include their edge values.
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
    centers = sliding_window_centers(xy.min(axis=0), xy.max(axis=0), stride)
    n_grid = len(centers)
    # An empty stream is valid too, but rarer than hypothesis would make it.
    min_blocks = draw(st.sampled_from([0, 1, 1, 1]))
    block_ids = draw(st.lists(st.integers(0, n_grid - 1), unique=True, min_size=min_blocks, max_size=min(n_grid, 6)))
    point_lists = st.lists(st.integers(0, n_points - 1), max_size=n_points + 2)
    recurring = draw(st.lists(st.sets(st.integers(0, n_points - 1), max_size=6), min_size=1, max_size=3))
    blocks = []
    for block_id in block_ids:
        near = np.flatnonzero(np.hypot(*(xy - centers[block_id]).T) <= radius - 0.5).tolist()
        near_lists = st.lists(st.sampled_from(near), max_size=8) if near else st.just([])
        copies = st.sampled_from(recurring).flatmap(lambda points: st.permutations(sorted(points)))
        masks = [(draw(st.one_of(near_lists, point_lists, copies)), draw(st.sampled_from([0.0, 0.4, 0.7, 1.0])), q)
                 for q in draw(st.lists(st.integers(0, 7), unique=True, max_size=4))]
        semantic = None
        voters = draw(st.sampled_from([None, "all", "some"]))
        if voters is not None:
            pids = (np.arange(n_points) if voters == "all"
                    else np.array(sorted(draw(st.sets(st.integers(0, n_points - 1)))), dtype=np.int64))
            classes = np.array(draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=len(pids), max_size=len(pids))),
                               dtype=np.int64)
            semantic = (pids, classes)
        blocks.append((block_id, masks, semantic))

    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS))) if blocks else None
    if fault is not None:
        victim = draw(st.sampled_from(range(len(blocks))))
        block_id, masks, semantic = blocks[victim]
        if fault == "repeated_block":
            blocks.append((block_id, [], None))
        elif fault == "off_grid":
            block_id = draw(st.sampled_from([n_grid, -1]))
        elif fault == "point_out_of_range":
            masks = masks + [([draw(st.sampled_from([-1, n_points]))], 0.5, 8)]
        elif fault == "repeated_query":
            masks = masks + [([0], 0.5, 8)] * 2
        elif fault == "score_out_of_range":
            masks = masks + [([0], draw(st.sampled_from([-0.5, 1.5, float("nan")])), 8)]
        elif fault == "non_integer_ids":
            masks = masks + [([0.5], 0.5, 8)]
        else:
            pids, classes = semantic if semantic is not None else (np.array([0]), np.array([0]))
            if fault == "vote_shape":
                classes = np.r_[classes, 0]
            elif fault == "vote_point":
                pids, classes = np.r_[pids, n_points], np.r_[classes, 0]
            elif fault == "vote_class":
                pids, classes = np.r_[pids, 0], np.r_[classes, N_CLASSES]
            else:
                if not len(pids):
                    pids, classes = np.array([0]), np.array([0])
                order = draw(st.permutations(range(len(pids) + 1)))
                pids, classes = np.r_[pids, pids[-1]][order], np.r_[classes, 0][order]
            semantic = (pids, classes)
        blocks[victim] = (block_id, masks, semantic)
    return positions, config, draw(st.permutations(blocks))


def packed_predictions(blocks):
    return [BlockPrediction(block_id, BlockMasks.pack(*zip(*masks)) if masks else BlockMasks(), semantic)
            for block_id, masks, semantic in blocks]


def object_predictions(blocks):
    return [ReferencePrediction(block_id, [InstanceMask(np.array(ids), score, block_id, q) for ids, score, q in masks],
                                semantic)
            for block_id, masks, semantic in blocks]


def _result_or_error(merge):
    try:
        return merge(), None
    except ForestSegError as exc:
        return None, type(exc)


class TestStreamingMerge:
    @settings(max_examples=400, deadline=None)
    @given(case=merge_cases(), as_generator=st.booleans())
    def test_packed_stream_matches_the_object_reference(self, case, as_generator):
        positions, config, blocks = case

        def reference():
            predictions = object_predictions(blocks)
            reference_check_block_ids(predictions, positions, config)
            return reference_merge_block_predictions(predictions, positions, config)

        def packed():
            predictions = packed_predictions(blocks)
            return merge_block_predictions(iter(predictions) if as_generator else predictions, positions, config)

        expected, expected_error = _result_or_error(reference)
        outcome, error = _result_or_error(packed)
        assert error is expected_error
        if expected is None:
            return
        assert np.array_equal(outcome.instance, expected.instance)
        if expected.semantic is None:
            assert outcome.semantic is None
        else:
            assert np.array_equal(outcome.semantic, expected.semantic)
        assert outcome.stage_counts() == expected.stage_counts()
        assert mask_keys(table_objects(outcome.masks_after_filter)) == mask_keys(expected.masks_after_filter)
        assert mask_keys(table_objects(outcome.masks_kept)) == mask_keys(expected.masks_kept)
        assert outcome.n_blocks == len(blocks)

    def test_each_prediction_is_freed_before_the_next_is_pulled(self):
        positions = np.c_[np.arange(12.0), np.zeros(12), np.zeros(12)]
        config = PipelineConfig(radius=4.0, stride=4.0)
        alive = []

        def predict(block_id):
            ids = np.array([4 * block_id, 4 * block_id + 1])
            prediction = BlockPrediction(
                block_id=block_id,
                masks=BlockMasks.pack([ids], [0.9]),
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
                yield BlockPrediction(block_id=0)

        with pytest.raises(UnknownBlock, match="block 0 arrives twice"):
            merge_block_predictions(stream(), np.zeros((4, 3)), PipelineConfig(radius=4.0, stride=4.0))
        assert pulls == 2

    def test_run_pipeline_frees_each_block_once_predicted(self, forest, monkeypatch):
        received = []
        oracle = pipeline.oracle_predictor

        def checking_oracle(block, *args, **kwargs):
            assert all(ref() is None for ref in received), "a predicted block is still referenced"
            received.append(weakref.ref(block))
            return oracle(block, *args, **kwargs)

        monkeypatch.setattr(pipeline, "oracle_predictor", checking_oracle)
        result = run_pipeline(forest, PipelineConfig(), threads=1)
        assert result.merge.n_blocks == len(received) > 1
        assert all(ref() is None for ref in received)

    def test_run_pipeline_peaks_below_its_eager_tile_list(self):
        # numpy reports its buffers to tracemalloc, so both sides are exact byte counts.
        cloud = generate_forest(ForestParams(n_trees=30, seed=0))
        config = PipelineConfig()
        tile_list_bytes = sum(block.point_indices.nbytes for block in tile_cloud(cloud, config.radius, config.stride))
        tracemalloc.start()
        try:
            run_pipeline(cloud, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tile_list_bytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stop_iteration_from_the_predictor_fails_the_run(self, forest, monkeypatch, threads):
        oracle, calls = pipeline.oracle_predictor, []

        def faulty_oracle(block, *args, **kwargs):
            calls.append(block.block_id)
            if len(calls) == 5:
                raise StopIteration
            return oracle(block, *args, **kwargs)

        monkeypatch.setattr(pipeline, "oracle_predictor", faulty_oracle)
        with pytest.raises(RuntimeError, match="StopIteration"):
            run_pipeline(forest, PipelineConfig(), threads=threads)


class TestSharedMaskIds:
    @staticmethod
    def _merge(cloud, corruption=CorruptionParams()):
        config = PipelineConfig()
        predict = make_oracle_predictor(cloud, corruption, config.seed)
        return merge_block_predictions((predict(b) for b in tile_cloud(cloud, config.radius, config.stride)),
                                       cloud.positions, config)

    @staticmethod
    def _sets_by_ids(rows):
        """The set indices of each distinct point set among the rows."""
        groups: dict[bytes, set[int]] = {}
        for i in range(len(rows)):
            groups.setdefault(rows.sets[rows.set_index[i]].tobytes(), set()).add(int(rows.set_index[i]))
        return groups

    @pytest.mark.parametrize("corruption", [CorruptionParams(), CorruptionParams(split_prob=0.5, point_noise=0.3)])
    def test_equal_sets_share_one_read_only_array(self, forest, corruption):
        outcome = self._merge(forest, corruption)
        rows = outcome.masks_after_filter
        groups = self._sets_by_ids(rows)
        if corruption == CorruptionParams():
            assert len(groups) < len(rows)  # clean trees arrive as exact copies; noisy masks may all differ
        assert all(len(indices) == 1 for indices in groups.values())
        assert len(set().union(*groups.values())) == len(groups)
        # One array per distinct point set, and one for the empty set: memory grows with the sets, not the copies.
        assert len(rows.sets) == 1 + sum(len(ids) > 0 for ids in groups)
        assert not any(ids.flags.writeable for ids in rows.sets)
        assert outcome.masks_kept.sets is rows.sets

    @pytest.mark.parametrize("corruption", [CorruptionParams(), CorruptionParams(split_prob=0.5, point_noise=0.3)])
    def test_nms_gets_every_empty_mask_and_each_sets_best_ranked_mask(self, forest, monkeypatch, corruption):
        given = []
        score_nms = pipeline.score_nms

        def recorded(rows, iou_threshold):
            given.extend(zip(rows.block_id.tolist(), rows.query_index.tolist()))
            return score_nms(rows, iou_threshold)

        monkeypatch.setattr(pipeline, "score_nms", recorded)
        masks = table_objects(self._merge(forest, corruption).masks_after_filter)
        best = {}
        for mask in sorted((m for m in masks if m.size), key=InstanceMask.sort_key):
            best.setdefault(mask.point_ids.tobytes(), mask)
        expected = [(m.block_id, m.query_index) for m in [*(m for m in masks if not m.size), *best.values()]]
        assert len(given) == len(expected) and set(given) == set(expected)


class TestMaskCopies:
    # Every point lies inside every block's footprint, so boundary discard keeps every mask.
    POSITIONS = np.c_[np.linspace(0.0, 20.0, 10), np.zeros(10), np.zeros(10)]
    CONFIG = PipelineConfig(radius=100.0, stride=4.0)

    def _merge(self, monkeypatch, blocks):
        given = []
        score_nms = pipeline.score_nms

        def recorded(rows, iou_threshold):
            given.extend(zip(rows.block_id.tolist(), rows.query_index.tolist()))
            return score_nms(rows, iou_threshold)

        monkeypatch.setattr(pipeline, "score_nms", recorded)
        predictions = [BlockPrediction(block_id, BlockMasks.pack(*zip(*masks))) for block_id, masks in blocks.items()]
        return merge_block_predictions(predictions, self.POSITIONS, self.CONFIG), set(given)

    def test_copies_share_the_first_array_and_only_the_best_ranked_reaches_nms(self, monkeypatch):
        blocks = {
            0: [([1, 2, 3], 0.5, 0), ([1, 2, 4], 0.5, 1)],  # a and b, one size: only the ids tell them apart
            3: [([3, 2, 1, 1], 0.6, 0)],  # a, unsorted and repeating a point
            2: [([4, 2, 1], 0.4, 0)],  # b
            4: [([1, 2], 0.5, 0)],
            5: [([1, 2, 3], 0.9, 0), ([1, 2, 4], 0.45, 2)],  # the best-ranked a, and b again in the same block
            1: [([1, 4, 5], 0.5, 0), ([2, 3, 5], 0.5, 1)],  # c and d: one size, id sum and last id
        }
        outcome, given = self._merge(monkeypatch, blocks)
        rows = outcome.masks_after_filter
        set_of = {(b, q): s for b, q, s in zip(rows.block_id.tolist(), rows.query_index.tolist(),
                                               rows.set_index.tolist())}
        assert set_of[(0, 0)] == set_of[(3, 0)] == set_of[(5, 0)]
        assert set_of[(0, 1)] == set_of[(2, 0)] == set_of[(5, 2)]
        assert len({set_of[(0, 0)], set_of[(0, 1)], set_of[(4, 0)], set_of[(1, 0)], set_of[(1, 1)]}) == 5
        assert [ids.tolist() for ids in rows.sets] == [[], [1, 2, 3], [1, 2, 4], [1, 2], [1, 4, 5], [2, 3, 5]]
        assert not any(ids.flags.writeable for ids in rows.sets)
        assert given == {(5, 0), (0, 1), (4, 0), (1, 0), (1, 1)}

    def test_every_empty_mask_reaches_nms(self, monkeypatch):
        blocks = {0: [([], 0.5, 0), ([7], 0.5, 1)], 1: [([], 0.5, 0)], 2: [([], 0.5, 0)]}
        outcome, given = self._merge(monkeypatch, blocks)
        assert given == {(0, 0), (0, 1), (1, 0), (2, 0)}
        assert outcome.masks_after_filter.set_index.tolist() == [0, 1, 0, 0]


def reference_run(cloud, config, corruption):
    """The labels and report of :func:`run_pipeline`, composed from the stage references: a loop crop per grid
    center, the set-operation oracle, the batch object merge and the pair-table evaluation."""
    xy = cloud.positions[:, :2]
    centers = sliding_window_centers(xy.min(axis=0), xy.max(axis=0), config.stride)
    predictions = []
    for block_id, center in enumerate(centers):
        block = reference_cylinder_crop(cloud, center, config.radius, block_id=block_id)
        if block is not None:
            masks = reference_oracle_predictor(block, cloud, corruption, seed=[config.seed, block_id])
            votes = (block.point_indices, cloud.semantic[block.point_indices])
            predictions.append(ReferencePrediction(block_id, masks, votes))
    merge = reference_merge_block_predictions(predictions, cloud.positions, config)
    report = {
        "config": dataclasses.asdict(config),
        "blocks": {"grid": len(centers), "processed": len(predictions),
                   "empty_skipped": len(centers) - len(predictions)},
        "masks": merge.stage_counts(),
    }
    if (cloud.instance > 0).any():
        report["evaluation"] = reference_evaluate_labels(merge.instance, cloud.instance, merge.semantic,
                                                         cloud.semantic).to_dict()
    return merge.instance, merge.semantic, report


@st.composite
def end_to_end_cases(draw):
    """A scene of 1 to 8 trees, a config that includes margin 0, NMS IoU 0 and 1 and stride = radius·√2, and a
    corruption."""
    forest = ForestParams(n_trees=draw(st.integers(1, 8)), plot_size=draw(st.sampled_from([5.0, 8.0, 12.0])),
                          points_per_tree_range=(20, 80), ground_density=2.0, min_spacing=1.0,
                          seed=draw(st.integers(0, 2**16)))
    radius = draw(st.sampled_from([2.5, 4.0, 7.0]))
    stride = radius * math.sqrt(2) * draw(st.one_of(st.sampled_from([1.0, 0.6]), st.floats(0.5, 1.0)))
    config = PipelineConfig(radius=radius, stride=stride,
                            nms_iou=draw(st.one_of(st.sampled_from([0.0, 1.0, 0.3]), st.floats(0.0, 1.0))),
                            score_threshold=draw(st.sampled_from([0.0, 0.4, 0.9])),
                            boundary_margin=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9))) * radius,
                            seed=draw(st.integers(0, 2**32 - 1)))
    corruption = CorruptionParams(split_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
                                  merge_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
                                  drop_prob=draw(st.sampled_from([0.0, 0.3])),
                                  point_noise=draw(st.sampled_from([0.0, 0.3, 1.0])),
                                  score_noise=draw(st.sampled_from([0.0, 0.1])))
    return generate_forest(forest), config, corruption


class TestEndToEndReference:
    @settings(max_examples=60, deadline=None)
    @given(case=end_to_end_cases())
    def test_run_pipeline_matches_the_composed_references(self, case):
        cloud, config, corruption = case
        result = run_pipeline(cloud, config, corruption)
        instance, semantic, report = reference_run(cloud, config, corruption)
        assert np.array_equal(result.merge.instance, instance)
        assert np.array_equal(result.merge.semantic, semantic)
        assert json.dumps(result.report, sort_keys=True) == json.dumps(report, sort_keys=True)
