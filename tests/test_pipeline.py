"""End-to-end pipeline behavior: identity, determinism, external predictors."""

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import io, merging, pipeline
from forestseg.core import GROUND, N_CLASSES, WOOD, PointCloud
from forestseg.errors import ConfigError, EmptyInput, ForestSegError, InvalidLabel, ShapeMismatch, UnknownBlock
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

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInput, match="cannot merge predictions over an empty point cloud"):
            merge_block_predictions([BlockPrediction(block_id=0, masks=[])], np.empty((0, 3)), PipelineConfig())

    def test_out_of_range_mask_points_rejected(self, forest):
        from forestseg.errors import ShapeMismatch

        bad = BlockPrediction(
            block_id=0,
            masks=[InstanceMask(point_ids=np.array([forest.n + 5]), score=0.9, block_id=0, query_index=0)],
        )
        with pytest.raises(ShapeMismatch):
            run_pipeline_from_blocks([bad], forest, PipelineConfig())

    @pytest.mark.parametrize("block_ids", [[0, 0], [-1], [10_000]])
    def test_block_ids_off_the_grid_rejected(self, forest, block_ids):
        bad = [BlockPrediction(block_id=i, masks=[]) for i in block_ids]
        with pytest.raises(UnknownBlock):
            run_pipeline_from_blocks(bad, forest, PipelineConfig())

    def test_mask_tagged_with_another_block_rejected(self):
        # Both points lie well inside block 0 (centered at x = 0) and outside
        # block 3 (x = 12), so measuring the mask against block 3 would drop it.
        positions = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [12.0, 0.0, 0.0]])
        stray = InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=3, query_index=0)
        predictions = [BlockPrediction(block_id=0, masks=[stray]), BlockPrediction(block_id=3, masks=[])]
        with pytest.raises(UnknownBlock, match="block 0 holds a mask of block 3"):
            merge_block_predictions(predictions, positions, PipelineConfig(radius=4.0, stride=4.0))

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_repeated_mask_key_rejected(self, order):
        # The two masks tie on (score, block id, query index), so without the
        # check the labelling would follow their order inside the prediction.
        twins = [InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=0, query_index=0),
                 InstanceMask(point_ids=np.array([1, 2]), score=0.9, block_id=0, query_index=0)]
        if order == "reversed":
            twins.reverse()
        prediction = BlockPrediction(block_id=0, masks=twins)
        with pytest.raises(UnknownBlock, match="block 0 holds two masks with query index 0"):
            merge_block_predictions([prediction], np.zeros((4, 3)), PipelineConfig(radius=4.0, stride=4.0))

    def test_repeated_block_id_rejected_even_with_distinct_query_indices(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        predictions = [
            BlockPrediction(block_id=0,
                            masks=[InstanceMask(point_ids=np.array([0, 1]), score=0.9, block_id=0, query_index=0)]),
            BlockPrediction(block_id=0,
                            masks=[InstanceMask(point_ids=np.array([2, 3]), score=0.9, block_id=0, query_index=1)]),
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
        predictions = [BlockPrediction(block_id=b, masks=[], semantic=bad if b == 2 else (pids, classes))
                       for b in range(3)]
        with pytest.raises(error, match=message):
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
        covering[0].semantic = (np.r_[pids, [0] * repeats], np.r_[classes, [GROUND] * repeats])
        # Counted, the repeats would turn point 0 to ground; the vote count refuses them.
        with pytest.raises(ShapeMismatch, match="semantic votes name point 0 more than once"):
            merging.semantic_vote_arrays([p.semantic[0] for p in predictions],
                                         [p.semantic[1] for p in predictions], cloud.n)
        with pytest.raises(ShapeMismatch, match=f"block {covering[0].block_id}: semantic votes name point 0 more than once"):
            merge_block_predictions(predictions, cloud.positions, config)

    def test_labelled_cloud_without_trees_is_not_evaluated(self, forest):
        ground = PointCloud(positions=forest.positions, semantic=np.zeros(forest.n, dtype=np.int64),
                            instance=np.zeros(forest.n, dtype=np.int64))
        result = run_pipeline(ground, PipelineConfig(), threads=1)
        assert result.evaluation is None
        assert "evaluation" not in result.report
        assert np.array_equal(result.merge.semantic, ground.semantic)
        assert result.report["masks"]["predicted"] == 0

FAULTS = ["repeated_block", "off_grid", "foreign_mask", "point_out_of_range", "repeated_query",
          "vote_shape", "vote_point", "vote_class", "vote_repeat"]


@st.composite
def merge_cases(draw):
    """Random predictions over a tiny scene, shuffled, with at most one kind of fault.

    Each block's masks are drawn mostly from the points near its grid
    center, so that some survive boundary discard. Scores come from a few
    values so that ties are common; masks may be empty, blocks may carry no
    votes, and the margin, NMS and score thresholds include their edge values.
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
    point_sets = st.sets(st.integers(0, n_points - 1), max_size=n_points)
    predictions = []
    for block_id in block_ids:
        near = np.flatnonzero(np.hypot(*(xy - centers[block_id]).T) <= radius - 0.5).tolist()
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
        predictions.append(BlockPrediction(block_id=block_id, masks=masks, semantic=semantic))

    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS))) if predictions else None
    if fault is not None:
        victim = draw(st.sampled_from(predictions))
        block_id = victim.block_id
        if fault == "repeated_block":
            predictions.append(BlockPrediction(block_id=block_id, masks=[]))
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
            elif fault == "vote_class":
                pids, classes = np.r_[pids, 0], np.r_[classes, N_CLASSES]
            else:
                if not len(pids):
                    pids, classes = np.array([0]), np.array([0])
                order = draw(st.permutations(range(len(pids) + 1)))
                pids, classes = np.r_[pids, pids[-1]][order], np.r_[classes, 0][order]
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
                block_id=block_id,
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
                yield BlockPrediction(block_id=0, masks=[])

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
    def _arrays_by_set(masks):
        arrays: dict[bytes, list] = {}
        for mask in masks:
            arrays.setdefault(mask.point_ids.tobytes(), []).append(mask.point_ids)
        return arrays

    @pytest.mark.parametrize("corruption", [CorruptionParams(), CorruptionParams(split_prob=0.5, point_noise=0.3)])
    def test_equal_sets_share_one_read_only_array(self, forest, corruption):
        masks = self._merge(forest, corruption).masks_after_filter
        arrays = self._arrays_by_set(masks)
        if corruption == CorruptionParams():
            assert len(arrays) < len(masks)  # clean trees arrive as exact copies; noisy masks may all differ
        for group in arrays.values():
            assert all(ids is group[0] for ids in group)
            assert not group[0].flags.writeable
        firsts = [group[0] for group in arrays.values()]
        assert len({id(ids) for ids in firsts}) == len(firsts)

    def test_colliding_keys_keep_sets_apart(self, forest, monkeypatch):
        expected = self._merge(forest)
        monkeypatch.setattr(pipeline, "_ids_key", lambda data: 0)
        outcome = self._merge(forest)
        assert [m.point_ids.tolist() for m in outcome.masks_after_filter] == \
            [m.point_ids.tolist() for m in expected.masks_after_filter]
        assert np.array_equal(outcome.instance, expected.instance)
        arrays = self._arrays_by_set(outcome.masks_after_filter)
        assert len(arrays) == len(self._arrays_by_set(expected.masks_after_filter)) > 1
        for group in arrays.values():
            assert all(ids is group[0] for ids in group)

    @pytest.mark.parametrize("corruption", [CorruptionParams(), CorruptionParams(split_prob=0.5, point_noise=0.3)])
    def test_nms_queries_each_shared_array_once(self, forest, monkeypatch, corruption):
        queried = []
        intersections = merging._PointIndex.intersections

        def counted(index, point_ids):
            queried.append(point_ids)
            return intersections(index, point_ids)

        monkeypatch.setattr(merging._PointIndex, "intersections", counted)
        masks = self._merge(forest, corruption).masks_after_filter
        nonempty = [ids for ids in queried if len(ids)]
        assert len({id(ids) for ids in nonempty}) == len(nonempty)
        assert len(nonempty) == len(self._arrays_by_set(m for m in masks if m.size))


class TestIdSetIndex:
    @pytest.mark.parametrize("key", [pipeline._ids_key, lambda data: 0])
    def test_interns_one_array_per_distinct_set(self, monkeypatch, key):
        monkeypatch.setattr(pipeline, "_ids_key", key)
        index = pipeline._IdSetIndex()
        a, b, empty = np.array([1, 2, 3]), np.array([1, 2, 4]), np.array([], dtype=np.int64)
        assert index.intern(a) is None and index.intern(b) is None and index.intern(empty) is None
        assert index.intern(a.copy()) is a
        assert index.intern(b.copy()) is b
        assert index.intern(np.array([], dtype=np.int64)) is empty
        assert index.intern(a) is a
        assert index.intern(np.array([1, 2])) is None
