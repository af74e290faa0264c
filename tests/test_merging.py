"""Merging stages against brute-force oracles and order-independence checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import merging
from forestseg.errors import ConfigError, InvalidLabel, ShapeMismatch, Unvoted
from forestseg.merging import (
    InstanceMask,
    discard_boundary_masks,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,
)
from merging_reference import (
    reference_discard_boundary_masks,
    reference_score_nms,
)


def mask(point_ids, score, block_id=0, query_index=0):
    return InstanceMask(point_ids=np.asarray(point_ids, dtype=np.int64), score=score,
                        block_id=block_id, query_index=query_index)


class TestInstanceMask:
    def test_ids_sorted_unique_and_flat(self):
        m = mask([[5, 1], [3, 1]], 0.5)
        assert m.point_ids.dtype == np.int64
        assert m.point_ids.tolist() == [1, 3, 5]

    def test_ids_are_a_copy(self):
        ids = np.array([1, 2, 3])
        m = mask(ids, 0.5)
        ids[0] = 9
        assert m.point_ids.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("score", [0.0, 1.0, np.float64(0.5), 1])
    def test_score_in_unit_interval_accepted(self, score):
        assert mask([0], score).score == score

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf"), -0.1, 1.1, np.float64("nan")])
    def test_score_outside_unit_interval_rejected(self, score):
        with pytest.raises(ShapeMismatch, match="mask score must be in"):
            mask([0], score)


def random_masks(rng, count, universe=200, max_size=40):
    masks = []
    for i in range(count):
        size = int(rng.integers(1, max_size))
        ids = rng.choice(universe, size=size, replace=False)
        masks.append(mask(ids, float(rng.uniform(0, 1)), block_id=int(rng.integers(0, 5)), query_index=i))
    return masks


def set_iou(a, b):
    sa, sb = set(a.point_ids.tolist()), set(b.point_ids.tolist())
    inter = len(sa & sb)
    return inter / len(sa | sb) if sa | sb else 0.0


@st.composite
def mask_lists(draw, universe=30):
    """Masks with empty point sets, exact duplicates and tied scores, plus a shuffled copy."""
    point_sets = draw(st.lists(st.sets(st.integers(0, universe - 1), max_size=12), max_size=16))
    if point_sets:
        point_sets += draw(st.lists(st.sampled_from(point_sets), max_size=6))
    masks = [
        mask(sorted(points), draw(st.sampled_from([0.25, 0.5, 0.5, 0.9])),
             block_id=draw(st.integers(0, 3)), query_index=i)
        for i, points in enumerate(point_sets)
    ]
    return masks, draw(st.permutations(masks))


@st.composite
def duplicate_heavy_mask_lists(draw, universe=30):
    """Copies of a few distinct nonempty point sets under other block ids,
    query indices and scores (exact score ties included), plus several empty masks."""
    distinct = draw(st.lists(st.sets(st.integers(0, universe - 1), min_size=1, max_size=12), min_size=1, max_size=5))
    point_sets = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    point_sets += [set()] * draw(st.integers(2, 4))
    masks = [
        mask(sorted(points), draw(st.sampled_from([0.25, 0.5, 0.9])), block_id=draw(st.integers(0, 3)), query_index=i)
        for i, points in enumerate(point_sets)
    ]
    return masks, draw(st.permutations(masks))


class TestInstanceMask:
    def test_unsorted_ids_are_sorted_and_deduplicated(self):
        assert mask([5, 1, 5, 3], 0.5).point_ids.tolist() == [1, 3, 5]
        assert mask([1, 3, 3, 5], 0.5).point_ids.tolist() == [1, 3, 5]

    def test_sorted_ids_are_copied_as_int64(self):
        ids = np.array([1, 4, 9], dtype=np.int32)
        m = mask(ids, 0.5)
        assert m.point_ids.dtype == np.int64 and m.point_ids.tolist() == [1, 4, 9]
        ids64 = np.array([2, 3], dtype=np.int64)
        m = InstanceMask(point_ids=ids64, score=0.5, block_id=0, query_index=0)
        ids64[0] = 7
        assert m.point_ids.tolist() == [2, 3]

    def test_empty_and_scalar_ids(self):
        assert mask([], 0.5).point_ids.shape == (0,)
        assert InstanceMask(point_ids=np.int64(4), score=0.5, block_id=0, query_index=0).point_ids.tolist() == [4]


class TestScoreFilter:
    def test_threshold_keeps_at_or_above(self):
        masks = [mask([0], 0.9), mask([1], 0.39), mask([2], 0.41)]
        kept = score_filter(masks, 0.4)
        assert [m.score for m in kept] == [0.9, 0.41]

    def test_zero_threshold_is_identity(self, rng):
        masks = random_masks(rng, 10)
        assert score_filter(masks, 0.0) == masks

    def test_matches_linear_scan_oracle(self, rng):
        masks = random_masks(rng, 50)
        kept = score_filter(masks, 0.6)
        assert kept == [m for m in masks if m.score >= 0.6]

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match=r"score threshold must be in \[0, 1\]"):
            score_filter([mask([0], 0.5)], threshold)


class TestDiscardBoundaryMasks:
    def _setup(self, farthest):
        positions = np.zeros((2, 3))
        positions[1, 0] = farthest
        return [mask([0, 1], 0.9)], positions

    def test_mask_reaching_margin_discarded(self):
        masks, positions = self._setup(15.6)
        assert discard_boundary_masks(masks, (0.0, 0.0), 16.0, positions, 0.5) == []

    def test_interior_mask_kept(self):
        masks, positions = self._setup(15.4)
        assert len(discard_boundary_masks(masks, (0.0, 0.0), 16.0, positions, 0.5)) == 1

    @pytest.mark.parametrize("center, radius", [
        ((float("nan"), 0.0), 16.0), ((0.0, float("inf")), 16.0), ((0.0, 0.0, 5.0), 16.0), ((0.0,), 16.0),
        ((0.0, 0.0), float("nan")), ((0.0, 0.0), 0.0), ((0.0, 0.0), -1.0), ((0.0, 0.0), float("inf")),
        ((0.0, 0.0), 1e200),
    ])
    def test_bad_footprint_rejected(self, center, radius):
        masks, positions = self._setup(1.0)
        with pytest.raises(ConfigError, match=r"block center must be a finite \(x, y\) pair and radius positive"):
            discard_boundary_masks(masks, center, radius, positions, 0.5)

    def test_matches_distance_scan_oracle(self, rng):
        positions = np.c_[rng.uniform(-20, 20, size=(300, 2)), np.zeros(300)]
        masks = random_masks(rng, 40, universe=300)
        for _ in range(5):
            center = (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            kept = discard_boundary_masks(masks, center, 16.0, positions, 0.5)
            expected = []
            for m in masks:
                dists = [np.hypot(*(positions[p, :2] - np.array(center))) for p in m.point_ids]
                if max(dists) <= 16.0 - 0.5:
                    expected.append(m)
            assert kept == expected

    def test_block_narrower_than_margin_keeps_only_empty_masks(self):
        # radius - margin = -0.2, so every point lies beyond it, even one at the center.
        positions = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        masks = [mask([0], 0.9), mask([0, 1], 0.9, query_index=1), mask([], 0.9, query_index=2)]
        kept = discard_boundary_masks(masks, (0.0, 0.0), 0.3, positions, 0.5)
        assert [m.query_index for m in kept] == [2]

    @pytest.mark.parametrize("margin", [-3.0, float("nan")])
    def test_negative_or_nan_margin_rejected(self, margin):
        positions = np.array([[3.0, 0.0, 0.0]])
        with pytest.raises(ConfigError, match="boundary margin must be >= 0"):
            discard_boundary_masks([mask([0], 0.9)], (0.0, 0.0), 1.0, positions, margin)

    def test_empty_masks_kept_and_order_preserved(self):
        positions = np.array([[0.0, 0.0, 0.0], [15.6, 0.0, 0.0], [15.4, 0.0, 0.0]])
        masks = [mask([], 0.5, 0, 4), mask([0, 1], 0.5, 0, 1), mask([0, 2], 0.5, 0, 5),
                 mask([], 0.5, 0, 0), mask([1], 0.5, 0, 3), mask([2], 0.5, 0, 2)]
        kept = discard_boundary_masks(masks, (0.0, 0.0), 16.0, positions, 0.5)
        assert [m.query_index for m in kept] == [4, 5, 0, 2]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_masks=st.integers(0, 12),
        center=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        radius=st.floats(0.1, 20.0),
        # Margin as a share of the radius: 0, inside the block, and at or beyond it.
        margin_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 1.5)),
    )
    def test_matches_per_mask_reference(self, seed, n_masks, center, radius, margin_share):
        gen = np.random.default_rng(seed)
        margin = margin_share * radius
        inner = radius - margin
        positions = np.c_[np.array(center) + gen.uniform(-radius, radius, size=(60, 2)), np.zeros(60)]
        # Points exactly radius - margin away along an axis probe the inclusive boundary.
        positions[:4, :2] = np.array(center) + max(inner, 0.0) * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        masks = [mask(gen.choice(60, size=int(gen.integers(0, 8)), replace=False), 0.5, query_index=i)
                 for i in range(n_masks)]
        assert discard_boundary_masks(masks, center, radius, positions, margin) == \
            reference_discard_boundary_masks(masks, center, radius, positions, margin)


class TestScoreNms:
    def test_duplicate_suppression(self):
        a = mask([0, 1, 2], 0.9, block_id=0)
        b = mask([0, 1, 2], 0.8, block_id=1)
        kept = score_nms([b, a], 0.5)
        assert kept == [a]

    def test_disjoint_masks_all_kept(self):
        masks = [mask([0, 1], 0.9), mask([2, 3], 0.5, query_index=1), mask([4], 0.1, query_index=2)]
        assert len(score_nms(masks, 0.3)) == 3

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match=r"NMS IoU threshold must be in \[0, 1\]"):
            score_nms([mask([0], 0.5)], threshold)

    def test_matches_quadratic_greedy_oracle(self, rng):
        masks = random_masks(rng, 50)
        kept = score_nms(masks, 0.25)
        ranked = sorted(masks, key=lambda m: (-m.score, m.block_id, m.query_index))
        expected = []
        for m in ranked:
            if all(set_iou(m, k) < 0.25 for k in expected):
                expected.append(m)
        assert kept == expected

    def test_input_order_independence(self, rng):
        masks = random_masks(rng, 30)
        reference = score_nms(masks, 0.3)
        for _ in range(5):
            shuffled = list(masks)
            rng.shuffle(shuffled)
            assert score_nms(shuffled, 0.3) == reference

    def test_threshold_one_keeps_everything(self, rng):
        masks = random_masks(rng, 20)
        assert len(score_nms(masks, 1.0)) == 20

    def test_tiny_threshold_keeps_pairwise_disjoint_set(self, rng):
        masks = random_masks(rng, 20, universe=60)
        kept = score_nms(masks, 1e-9)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not set(kept[i].point_ids.tolist()) & set(kept[j].point_ids.tolist())


class TestIndexKernelsMatchPairwiseReference:
    """The point-index kernels against the pairwise ``intersect1d`` loops they replaced."""

    @settings(deadline=None)
    @given(data=mask_lists(), threshold=st.sampled_from([0.0, 1e-9, 0.3, 1.0]))
    def test_score_nms(self, data, threshold):
        masks, shuffled = data
        expected = reference_score_nms(masks, threshold)
        assert score_nms(masks, threshold) == expected
        assert score_nms(shuffled, threshold) == expected

    @settings(deadline=None)
    @given(data=duplicate_heavy_mask_lists(), threshold=st.sampled_from([0.0, 1e-9, 0.3, 1.0]))
    def test_score_nms_on_exact_copies(self, data, threshold):
        masks, shuffled = data
        expected = reference_score_nms(masks, threshold)
        assert score_nms(masks, threshold) == expected
        assert score_nms(shuffled, threshold) == expected
        if threshold > 0:
            assert sum(m.size == 0 for m in expected) == sum(m.size == 0 for m in masks)

    def test_score_nms_queries_each_shared_array_once(self, monkeypatch):
        calls = []
        intersections = merging._PointIndex.intersections

        def counted(index, point_ids):
            calls.append(len(point_ids))
            return intersections(index, point_ids)

        monkeypatch.setattr(merging._PointIndex, "intersections", counted)
        distinct = [np.arange(0, 40), np.arange(30, 70), np.arange(100, 120)]
        masks = [
            mask(ids, 0.5 + 0.01 * (copy % 7), block_id=copy, query_index=q)
            for copy in range(50) for q, ids in enumerate(distinct)
        ]
        expected = reference_score_nms(masks, 0.3)
        # Copies with arrays of their own are each queried, with the same result.
        assert score_nms(masks, 0.3) == expected
        assert len(calls) == len(masks)
        calls.clear()
        for m in masks:
            m.point_ids = distinct[m.query_index]  # one array per point set, as the merge hands out
        assert score_nms(masks, 0.3) == expected
        assert len(calls) == len(distinct)

    @pytest.mark.parametrize("threshold", [0.0, 1e-9, 0.3, 0.5, 1.0])
    def test_score_nms_on_many_overlapping_masks(self, rng, threshold):
        masks = random_masks(rng, 300, universe=400, max_size=60)
        masks += [mask(m.point_ids, m.score, m.block_id, 300 + i) for i, m in enumerate(masks[:40])]
        assert score_nms(masks, threshold) == reference_score_nms(masks, threshold)

    def test_zero_threshold_keeps_only_the_top_ranked_mask(self):
        masks = [mask([0], 0.5), mask([1], 0.9, query_index=1), mask([], 0.7, query_index=2)]
        assert score_nms(masks, 0.0) == [masks[1]]
        assert score_nms([], 0.0) == []


def brute_force_intersections(indexed, query):
    """Ids of the masks in ``indexed``, a list of point sets, sharing a point with ``query``, and how many each shares."""
    shared = [(mask_id, len(points & query)) for mask_id, points in enumerate(indexed)]
    return [mask_id for mask_id, n in shared if n], [n for _, n in shared if n]


# Mask sizes one below, at and above 0, the run ratio and 9 times it: runs a ratio apart form, so an add carries
# across several of them.
INDEX_SIZES = sorted({max(k * merging._RUN_RATIO + d, 0) for k in (0, 1, 9) for d in (-1, 0, 1)})


@st.composite
def index_operations(draw, universe=160):
    """Steps on a ``_PointIndex``: ``(True, points)`` adds a mask, ``(False, points)`` queries."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        size, seed = draw(st.sampled_from(INDEX_SIZES)), draw(st.integers(0, 2**32 - 1))
        points = set(np.random.default_rng(seed).choice(universe, size=size, replace=False).tolist())
        steps.append((draw(st.booleans()), points))
    return steps


class TestPointIndex:
    """``_PointIndex.intersections`` against a set count over every mask added so far."""

    @staticmethod
    def _run(steps):
        index, indexed = merging._PointIndex(), []
        for is_add, points in steps:
            ids = np.array(sorted(points), dtype=np.int64)
            if is_add:
                index.add(ids, len(indexed))
                indexed.append(points)
            else:
                hit, shared = index.intersections(ids)
                assert (hit.tolist(), shared.tolist()) == brute_force_intersections(indexed, points)
        for points in [set(), *indexed]:
            hit, shared = index.intersections(np.array(sorted(points), dtype=np.int64))
            assert (hit.tolist(), shared.tolist()) == brute_force_intersections(indexed, points)
        return index

    @settings(deadline=None)
    @given(steps=index_operations())
    def test_matches_set_count(self, steps):
        self._run(steps)

    def test_add_carries_across_several_runs(self):
        ratio = merging._RUN_RATIO
        sizes = [ratio * (ratio + 1) + 1, ratio + 1, 1]  # each run more than ``ratio`` times the next newer one
        steps = [(True, set(range(i, i + n))) for i, n in enumerate(sizes)]
        assert len(self._run(steps)._runs) == 3
        # Two more points absorb the newest run, and each merged run then absorbs the next older one.
        assert len(self._run(steps + [(True, {0, 1})])._runs) == 1


class TestResolvePoints:
    def test_highest_score_claims_shared_point(self):
        a = mask([0, 1], 0.9)
        b = mask([1, 2], 0.7, query_index=1)
        out = resolve_points([a, b], 4)
        assert out.tolist() == [1, 1, 2, 0]

    def test_unclaimed_point_gets_zero(self):
        out = resolve_points([mask([2], 0.5)], 4)
        assert out.tolist() == [0, 0, 1, 0]

    def test_matches_argmax_oracle(self, rng):
        masks = random_masks(rng, 25, universe=150)
        out = resolve_points(masks, 150)
        order = sorted(masks, key=lambda m: (-m.score, m.block_id, m.query_index))
        for p in range(150):
            claimants = [r for r, m in enumerate(order, start=1) if p in set(m.point_ids.tolist())]
            assert out[p] == (claimants[0] if claimants else 0)

    def test_partition_property(self, rng):
        masks = random_masks(rng, 25, universe=100)
        out = resolve_points(masks, 100)
        assert out.shape == (100,)
        claimed = set()
        for m in masks:
            claimed |= set(m.point_ids.tolist())
        assert set(np.flatnonzero(out > 0).tolist()) == claimed


def spread(pairs):
    """(point_ids, classes) arrays per block for (point_id, class) pairs: the
    k-th vote for a point goes to block k, so no block names a point twice."""
    blocks: list[tuple[list, list]] = []
    counted: dict[int, int] = {}
    for pid, cls in pairs:
        k = counted[pid] = counted.get(pid, -1) + 1
        if k == len(blocks):
            blocks.append(([], []))
        blocks[k][0].append(pid)
        blocks[k][1].append(cls)
    return ([np.array(pids, dtype=np.int64) for pids, _ in blocks],
            [np.array(classes, dtype=np.int64) for _, classes in blocks])


def vote(pairs, n_points):
    """semantic_vote_arrays over (point_id, class) pairs, spread over blocks."""
    return semantic_vote_arrays(*spread(pairs), n_points)


class TestSemanticVote:
    def test_majority(self):
        out = vote([(0, 0), (0, 0), (0, 2)], 1)
        assert out.tolist() == [0]

    def test_tie_breaks_to_lowest_class(self):
        out = vote([(0, 1), (0, 2)], 1)
        assert out.tolist() == [1]

    def test_matches_counting_oracle(self, rng):
        n = 50
        votes = [(int(rng.integers(0, n)), int(rng.integers(0, 3))) for _ in range(600)]
        votes += [(p, 0) for p in range(n)]  # make sure everyone is voted
        point_ids, classes = spread(votes)
        assert len(point_ids) > 1
        out = semantic_vote_arrays(point_ids, classes, n)
        for p in range(n):
            tallies = [0, 0, 0]
            for pid, cls in votes:
                if pid == p:
                    tallies[cls] += 1
            assert out[p] == tallies.index(max(tallies))

    def test_unvoted_point_rejected(self):
        with pytest.raises(Unvoted):
            vote([(0, 1)], 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            semantic_vote_arrays([np.array([0, 1])], [np.array([1])], 2)

    @pytest.mark.parametrize("point_ids, classes", [
        ([[0, 1]], [1, 1]),
        ([0, 1], [[1, 1]]),
        ([[0], [1]], [[1], [1]]),  # equal shapes, but not 1-D
        (0, 1),
    ])
    def test_votes_not_1d_rejected(self, point_ids, classes):
        votes = merging.SemanticVotes(2)
        with pytest.raises(ShapeMismatch, match="point_ids and classes must be 1-D"):
            votes.add(np.array(point_ids), np.array(classes))
        assert not votes.counts.any()

    @pytest.mark.parametrize("cls", [-1, 3])
    def test_invalid_class_rejected(self, cls):
        with pytest.raises(InvalidLabel):
            vote([(0, cls)], 1)

    @pytest.mark.parametrize("point_id", [-1, 2])
    def test_out_of_range_point_rejected(self, point_id):
        with pytest.raises(ShapeMismatch):
            vote([(0, 1), (point_id, 1)], 2)

    @pytest.mark.parametrize("point_ids", [[1, 0, 1], [0, 1, 1]])
    def test_repeated_point_rejected_and_not_counted(self, point_ids):
        votes = merging.SemanticVotes(2)
        votes.add(np.array([0, 1]), np.array([1, 1]))
        with pytest.raises(ShapeMismatch, match="semantic votes name point 1 more than once"):
            votes.add(np.array(point_ids), np.array([2, 2, 2]))
        assert votes.counts.tolist() == [[0, 1, 0], [0, 1, 0]]
        with pytest.raises(ShapeMismatch, match="semantic votes name point 1 more than once"):
            semantic_vote_arrays([np.array([0, 1]), np.array(point_ids)], [np.array([1, 1]), np.array([2, 2, 2])], 2)

    def test_counts_are_int32(self):
        votes = merging.SemanticVotes(2)
        votes.add(np.array([0, 1]), np.array([2, 0]))
        votes.add(np.array([1]), np.array([0]))
        assert votes.counts.dtype == np.int32
        assert votes.counts.tolist() == [[0, 0, 1], [2, 0, 0]]

    def test_counts_widen_before_they_could_overflow(self):
        top = np.iinfo(np.int32).max
        votes = merging.SemanticVotes(2)
        votes.add(np.array([0, 1]), np.array([1, 0]))
        votes.counts[0, 1] = top - 1
        votes._added = top - 1  # as if top - 1 votes had been added
        votes.add(np.array([0]), np.array([1]))
        assert votes.counts.dtype == np.int32 and votes.counts[0, 1] == top
        votes.add(np.array([0]), np.array([1]))
        assert votes.counts.dtype == np.int64
        assert votes.counts[0, 1] == top + 1
        assert votes.majority().tolist() == [1, 0]


class TestMergeConfig:
    """The merge thresholds are carried and checked by ``PipelineConfig``."""

    def test_margin_must_stay_below_radius(self):
        from forestseg.errors import ConfigError
        from forestseg.pipeline import PipelineConfig

        with pytest.raises(ConfigError):
            PipelineConfig(boundary_margin=16.0, radius=16.0)
