"""Merging stages against brute-force oracles and order-independence checks.

The packed kernels take ``BlockMasks`` and ``MaskTable`` values; the tests
build masks as ``InstanceMask`` objects of the object reference, pack them,
and turn the kernels' results back into masks to compare.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg import merging
from forestseg.errors import ConfigError, InvalidLabel, ShapeMismatch, Unvoted
from forestseg.merging import (
    BlockMasks,
    BlockPrediction,
    MaskTable,
    discard_boundary_masks,
    resolve_points,
    score_filter,
    score_nms,
    semantic_vote_arrays,
)
from merging_reference import (
    InstanceMask,
    block_objects,
    mask_ids,
    mask_keys,
    pack,
    reference_discard_boundary_masks,
    reference_resolve_points,
    reference_score_nms,
    table,
    table_objects,
)


def mask(point_ids, score, block_id=0, query_index=0):
    return InstanceMask(point_ids=np.asarray(point_ids, dtype=np.int64), score=score,
                        block_id=block_id, query_index=query_index)


def nms(masks, threshold):
    """score_nms over the masks as table rows, its kept rows as masks."""
    return table_objects(score_nms(table(masks), threshold))


def discard(masks, *args):
    """discard_boundary_masks over the masks packed as one block, its kept masks as masks."""
    return block_objects(0, discard_boundary_masks(pack(masks), *args))


def same_block_masks(got, expected):
    """Mask lists equal but for the block id, which a packed block does not hold."""
    return [key[1:] for key in mask_keys(got)] == [key[1:] for key in mask_keys(expected)]


# Ids an int64 cast would truncate, read as 0 and 1, wrap or parse, each with the start of its rejection.
NON_INTEGER_IDS = [
    ([1.9, 3.2], "must be integers, got dtype float64"),
    (np.array([1.0, 2.0], dtype=np.float32), "must be integers, got dtype float32"),
    ([True, False], "must be integers, got dtype bool"),
    (["1", "2"], "must be integers, got dtype <U1"),
    ([1, 2**64], "must be integers, got dtype "),  # object; numpy 1.x may read these two as float64
    ([-1, 2**63], "must be integers, got dtype "),
    ([2**63], "must fit int64, got 9223372036854775808"),
    (np.array([3, 2**64 - 1], dtype=np.uint64), "must fit int64, got 18446744073709551615"),
]


class TestBlockMasks:
    def test_each_masks_ids_sorted_and_deduplicated(self):
        masks = BlockMasks.pack([[5, 1, 5, 3], [1, 3, 3, 5], [], [9], [2, 1]], [0.5] * 5)
        assert [mask_ids(masks, i).tolist() for i in range(len(masks))] == [[1, 3, 5], [1, 3, 5], [], [9], [1, 2]]
        assert masks.mask_sizes.tolist() == [3, 3, 0, 1, 2] and masks.point_ids.dtype == np.int64
        assert masks.query_index.tolist() == [0, 1, 2, 3, 4]

    def test_descending_across_a_mask_boundary_needs_no_sort(self):
        ids = np.array([7, 8, 1, 2, 3, 0], dtype=np.int64)
        masks = BlockMasks(ids, [2, 3, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert masks.point_ids is ids  # already in form: held, not copied

    def test_narrow_ids_become_int64(self):
        masks = BlockMasks(np.array([1, 4, 9], dtype=np.int32), np.array([3], dtype=np.uint8), [1])
        assert masks.point_ids.dtype == masks.mask_sizes.dtype == masks.query_index.dtype == np.int64
        assert masks.score.dtype == np.float64 and masks.score.tolist() == [1.0]

    @settings(max_examples=200, deadline=None)
    @given(id_lists=st.lists(st.lists(st.integers(-3, 12), max_size=8), max_size=6))
    def test_normalizes_as_the_object_mask_does(self, id_lists):
        masks = BlockMasks.pack(id_lists, [0.5] * len(id_lists))
        expected = [mask(ids, 0.5).point_ids.tolist() for ids in id_lists]
        assert [mask_ids(masks, i).tolist() for i in range(len(masks))] == expected

    @pytest.mark.parametrize("score", [0.0, 1.0, np.float64(0.5), 1])
    def test_score_in_unit_interval_accepted(self, score):
        assert BlockMasks.pack([[0], [1]], [0.5, score]).score.tolist() == [0.5, score]

    @pytest.mark.parametrize("score, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"), (-0.1, "-0.1"), (1.1, "1.1"),
        (np.float64("nan"), "nan"),
    ])
    def test_score_outside_unit_interval_names_the_mask(self, score, shown):
        with pytest.raises(ShapeMismatch, match=rf"^masks\[1\]: mask score must be in \[0, 1\], got {shown}$"):
            BlockMasks.pack([[0], [1], [2]], [0.5, score, 2.0])

    @pytest.mark.parametrize("scores", [[True, False], ["0.5", "1"]])
    def test_non_number_scores_rejected(self, scores):
        with pytest.raises(ShapeMismatch, match="mask scores must be numbers"):
            BlockMasks.pack([[0], [1]], scores)

    @pytest.mark.parametrize("point_ids, message", NON_INTEGER_IDS)
    def test_non_integer_ids_rejected(self, point_ids, message):
        with pytest.raises(ShapeMismatch, match=f"^mask point_ids {message}"):
            BlockMasks(point_ids, [len(point_ids)], [0.5])
        with pytest.raises(ShapeMismatch, match=f"^mask point_ids {message}"):
            BlockMasks.pack([[0], point_ids], [0.5, 0.5])

    @pytest.mark.parametrize("point_ids, sizes, scores, query_index, message", [
        ([1, 2], [1, 1], [0.5], None, "query_index, mask_sizes and score lengths differ: 2, 2 and 1"),
        ([1, 2], [2], [0.5], [0, 1], "query_index, mask_sizes and score lengths differ: 2, 1 and 1"),
        ([1, 2], [3, -1], [0.5, 0.5], None, "mask_sizes must be >= 0, got -1"),
        ([1, 2], [1, 2], [0.5, 0.5], None, "mask_sizes sum to 3, but point_ids holds 2"),
        ([1, 2], [], [], None, "mask_sizes sum to 0, but point_ids holds 2"),
        ([1, 2], [2**62] * 4 + [2], [0.5] * 5, None, "mask_sizes sum to 18446744073709551618, but point_ids holds 2"),
        ([[1, 2]], [2], [0.5], None, "must be 1-D"),
        ([1, 2], [2], [0.5], [[0]], "must be 1-D"),
        ([1, 2], [2], [0.5], [0.0], "mask query_index must be integers, got dtype float64"),
    ])
    def test_inconsistent_arrays_rejected(self, point_ids, sizes, scores, query_index, message):
        with pytest.raises(ShapeMismatch, match=message.replace("[", r"\[")):
            BlockMasks(point_ids, sizes, scores, query_index)

    def test_empty(self):
        for masks in (BlockMasks(), BlockMasks.pack([], [])):
            assert len(masks) == 0 and masks.point_ids.dtype == np.int64 and masks.point_ids.shape == (0,)

    def test_keep_picks_masks_in_order(self):
        masks = BlockMasks.pack([[1, 2], [], [3], [4, 5, 6]], [0.1, 0.2, 0.3, 0.4], [7, 5, 9, 8])
        for chosen in ([True, False, True, True], [False, True, False, False], [False] * 4):
            kept = masks.keep(np.array(chosen))
            rows = np.flatnonzero(chosen)
            assert ([mask_ids(kept, i).tolist() for i in range(len(kept))]
                    == [mask_ids(masks, r).tolist() for r in rows])
            assert kept.score.tolist() == masks.score[rows].tolist()
            assert kept.query_index.tolist() == masks.query_index[rows].tolist()
        assert masks.keep(np.ones(4, dtype=bool)) is masks


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


class TestScoreFilter:
    def test_threshold_keeps_at_or_above(self):
        masks = [mask([0], 0.9), mask([1], 0.39), mask([2], 0.41)]
        kept = score_filter(pack(masks), 0.4)
        assert kept.score.tolist() == [0.9, 0.41]
        assert [mask_ids(kept, i).tolist() for i in range(len(kept))] == [[0], [2]]

    def test_zero_threshold_is_identity(self, rng):
        masks = pack(random_masks(rng, 10))
        assert score_filter(masks, 0.0) is masks

    def test_matches_linear_scan_oracle(self, rng):
        masks = random_masks(rng, 50)
        kept = block_objects(0, score_filter(pack(masks), 0.6))
        assert same_block_masks(kept, [m for m in masks if m.score >= 0.6])

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match=r"score threshold must be in \[0, 1\]"):
            score_filter(pack([mask([0], 0.5)]), threshold)


class TestDiscardBoundaryMasks:
    def _setup(self, farthest):
        positions = np.zeros((2, 3))
        positions[1, 0] = farthest
        return [mask([0, 1], 0.9)], positions

    def test_mask_reaching_margin_discarded(self):
        masks, positions = self._setup(15.6)
        assert discard(masks, (0.0, 0.0), 16.0, positions, 0.5) == []

    def test_interior_mask_kept(self):
        masks, positions = self._setup(15.4)
        assert len(discard(masks, (0.0, 0.0), 16.0, positions, 0.5)) == 1

    @pytest.mark.parametrize("center, radius", [
        ((float("nan"), 0.0), 16.0), ((0.0, float("inf")), 16.0), ((0.0, 0.0, 5.0), 16.0), ((0.0,), 16.0),
        ((0.0, 0.0), float("nan")), ((0.0, 0.0), 0.0), ((0.0, 0.0), -1.0), ((0.0, 0.0), float("inf")),
        ((0.0, 0.0), 1e200),
    ])
    def test_bad_footprint_rejected(self, center, radius):
        masks, positions = self._setup(1.0)
        with pytest.raises(ConfigError, match=r"block center must be a finite \(x, y\) pair and radius positive"):
            discard(masks, center, radius, positions, 0.5)

    @pytest.mark.parametrize("point_id", [-1, 7])
    def test_id_outside_the_positions_rejected(self, point_id):
        with pytest.raises(ShapeMismatch, match=r"^masks reference points outside 0\.\.2$"):
            discard_boundary_masks(BlockMasks.pack([[0], [point_id]], [0.9, 0.9]), (0.0, 0.0), 16.0, np.zeros((3, 3)),
                                   0.5)

    def test_matches_distance_scan_oracle(self, rng):
        positions = np.c_[rng.uniform(-20, 20, size=(300, 2)), np.zeros(300)]
        masks = random_masks(rng, 40, universe=300)
        for _ in range(5):
            center = (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            kept = discard(masks, center, 16.0, positions, 0.5)
            expected = []
            for m in masks:
                dists = [np.hypot(*(positions[p, :2] - np.array(center))) for p in m.point_ids]
                if max(dists) <= 16.0 - 0.5:
                    expected.append(m)
            assert same_block_masks(kept, expected)

    def test_block_narrower_than_margin_keeps_only_empty_masks(self):
        # radius - margin = -0.2, so every point lies beyond it, even one at the center.
        positions = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
        masks = [mask([0], 0.9), mask([0, 1], 0.9, query_index=1), mask([], 0.9, query_index=2)]
        kept = discard(masks, (0.0, 0.0), 0.3, positions, 0.5)
        assert [m.query_index for m in kept] == [2]

    @pytest.mark.parametrize("margin", [-3.0, float("nan")])
    def test_negative_or_nan_margin_rejected(self, margin):
        positions = np.array([[3.0, 0.0, 0.0]])
        with pytest.raises(ConfigError, match="boundary margin must be >= 0"):
            discard([mask([0], 0.9)], (0.0, 0.0), 1.0, positions, margin)

    def test_empty_masks_kept_and_order_preserved(self):
        positions = np.array([[0.0, 0.0, 0.0], [15.6, 0.0, 0.0], [15.4, 0.0, 0.0]])
        masks = [mask([], 0.5, 0, 4), mask([0, 1], 0.5, 0, 1), mask([0, 2], 0.5, 0, 5),
                 mask([], 0.5, 0, 0), mask([1], 0.5, 0, 3), mask([2], 0.5, 0, 2)]
        kept = discard(masks, (0.0, 0.0), 16.0, positions, 0.5)
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
        assert mask_keys(discard(masks, center, radius, positions, margin)) == \
            mask_keys(reference_discard_boundary_masks(masks, center, radius, positions, margin))


class TestScoreNms:
    def test_duplicate_suppression(self):
        a = mask([0, 1, 2], 0.9, block_id=0)
        b = mask([0, 1, 2], 0.8, block_id=1)
        assert mask_keys(nms([b, a], 0.5)) == mask_keys([a])

    def test_disjoint_masks_all_kept(self):
        masks = [mask([0, 1], 0.9), mask([2, 3], 0.5, query_index=1), mask([4], 0.1, query_index=2)]
        assert len(score_nms(table(masks), 0.3)) == 3

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match=r"NMS IoU threshold must be in \[0, 1\]"):
            score_nms(table([mask([0], 0.5)]), threshold)

    def test_matches_quadratic_greedy_oracle(self, rng):
        masks = random_masks(rng, 50)
        ranked = sorted(masks, key=lambda m: (-m.score, m.block_id, m.query_index))
        expected = []
        for m in ranked:
            if all(set_iou(m, k) < 0.25 for k in expected):
                expected.append(m)
        assert mask_keys(nms(masks, 0.25)) == mask_keys(expected)

    def test_input_order_independence(self, rng):
        masks = random_masks(rng, 30)
        reference = mask_keys(nms(masks, 0.3))
        for _ in range(5):
            shuffled = list(masks)
            rng.shuffle(shuffled)
            assert mask_keys(nms(shuffled, 0.3)) == reference

    def test_threshold_one_keeps_everything(self, rng):
        masks = random_masks(rng, 20)
        assert len(score_nms(table(masks), 1.0)) == 20

    def test_tiny_threshold_keeps_pairwise_disjoint_set(self, rng):
        masks = random_masks(rng, 20, universe=60)
        kept = nms(masks, 1e-9)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert not set(kept[i].point_ids.tolist()) & set(kept[j].point_ids.tolist())

    def test_negative_id_rejected(self):
        with pytest.raises(ShapeMismatch, match="^mask ids must be >= 0, got -1$"):
            score_nms(table([mask([0, 1], 0.9), mask([-1, 2], 0.5, query_index=1)]), 0.3)

    def test_rows_over_shared_sets(self):
        # Rows 0 and 2 share set 1; the lower-ranked copy of it is suppressed, the other set survives.
        rows = MaskTable(block_id=np.array([4, 1, 2]), query_index=np.array([0, 0, 3]),
                         score=np.array([0.5, 0.5, 0.9]), set_index=np.array([1, 0, 1]),
                         sets=[np.array([7, 8]), np.array([1, 2, 3])])
        kept = score_nms(rows, 0.5)
        assert list(zip(kept.block_id.tolist(), kept.query_index.tolist())) == [(2, 3), (1, 0)]
        assert kept.sets is rows.sets and kept.set_index.tolist() == [1, 0]


class TestIndexKernelsMatchPairwiseReference:
    """NMS's owner chains against the pairwise ``intersect1d`` loop of the object reference."""

    @settings(deadline=None)
    @given(data=mask_lists(), threshold=st.sampled_from([0.0, 1e-9, 0.3, 1.0]))
    def test_score_nms(self, data, threshold):
        masks, shuffled = data
        expected = mask_keys(reference_score_nms(masks, threshold))
        assert mask_keys(nms(masks, threshold)) == expected
        assert mask_keys(nms(shuffled, threshold)) == expected

    @settings(deadline=None)
    @given(data=duplicate_heavy_mask_lists(), threshold=st.sampled_from([0.0, 1e-9, 0.3, 1.0]))
    def test_score_nms_on_exact_copies(self, data, threshold):
        masks, shuffled = data
        expected = reference_score_nms(masks, threshold)
        assert mask_keys(nms(masks, threshold)) == mask_keys(expected)
        assert mask_keys(nms(shuffled, threshold)) == mask_keys(expected)
        if threshold > 0:
            assert sum(m.size == 0 for m in expected) == sum(m.size == 0 for m in masks)

    @pytest.mark.parametrize("threshold", [0.0, 1e-9, 0.3, 1.0])
    def test_score_nms_ignores_whether_copies_share_a_set(self, threshold):
        distinct = [np.arange(0, 40), np.arange(30, 70), np.arange(100, 120), np.array([], dtype=np.int64)]
        own = [mask(ids, 0.5 + 0.01 * (copy % 7), block_id=copy, query_index=q)
               for copy in range(20) for q, ids in enumerate(distinct)]
        shared = table(own)
        shared.sets, shared.set_index = distinct, shared.query_index.copy()
        expected = [(m.block_id, m.query_index) for m in reference_score_nms(own, threshold)]
        for rows in (table(own), shared):
            kept = score_nms(rows, threshold)
            assert list(zip(kept.block_id.tolist(), kept.query_index.tolist())) == expected

    @pytest.mark.parametrize("threshold", [0.0, 1e-9, 0.3, 0.5, 1.0])
    def test_score_nms_on_many_overlapping_masks(self, rng, threshold):
        masks = random_masks(rng, 300, universe=400, max_size=60)
        masks += [mask(m.point_ids, m.score, m.block_id, 300 + i) for i, m in enumerate(masks[:40])]
        assert mask_keys(nms(masks, threshold)) == mask_keys(reference_score_nms(masks, threshold))

    @pytest.mark.parametrize("threshold", [0.3, 0.9, 1.0])
    def test_score_nms_on_deep_owner_chains(self, rng, threshold):
        # 45 nested masks share point 0, each under 0.89 of the size of the next larger one, so at IoU 0.9 and 1.0
        # all are kept, and every later query of point 0 walks a chain of dozens of owners. The scores rank the
        # masks in no size order, and random masks overlap them. Ranked last, a copy of each nested mask must
        # find its original however deep in the chains it lies.
        sizes = [1]
        while len(sizes) < 45:
            sizes.append(int(sizes[-1] / 0.89) + 1)
        scores = (1 + rng.permutation(len(sizes))) / len(sizes)
        masks = [mask(np.arange(size), score, query_index=i) for i, (size, score) in enumerate(zip(sizes, scores))]
        masks += [mask(m.point_ids, m.score, 1, i) for i, m in enumerate(random_masks(rng, 30, universe=sizes[-1]))]
        masks += [mask(m.point_ids, 0.0, 2, i) for i, m in enumerate(masks[:len(sizes)])]
        kept = nms(masks, threshold)
        assert mask_keys(kept) == mask_keys(reference_score_nms(masks, threshold))
        if threshold >= 0.9:
            assert sum(m.point_ids[0] == 0 for m in kept) >= 45

    def test_zero_threshold_keeps_only_the_top_ranked_mask(self):
        masks = [mask([0], 0.5), mask([1], 0.9, query_index=1), mask([], 0.7, query_index=2)]
        assert mask_keys(nms(masks, 0.0)) == mask_keys([masks[1]])
        assert nms([], 0.0) == []


class TestResolvePoints:
    @pytest.mark.parametrize("point_id, message", [(-1, "must be >= 0, got -1"),
                                                   (6, "must be below the 6 points, got 6")])
    def test_id_outside_the_cloud_rejected(self, point_id, message):
        with pytest.raises(ShapeMismatch, match=f"^mask ids {message}$"):
            resolve_points(table([mask([point_id], 0.9), mask([5], 0.5, query_index=1)]), 6)

    def test_highest_score_claims_shared_point(self):
        a = mask([0, 1], 0.9)
        b = mask([1, 2], 0.7, query_index=1)
        out = resolve_points(table([a, b]), 4)
        assert out.tolist() == [1, 1, 2, 0]

    def test_unclaimed_point_gets_zero(self):
        out = resolve_points(table([mask([2], 0.5)]), 4)
        assert out.tolist() == [0, 0, 1, 0]

    def test_matches_argmax_oracle(self, rng):
        masks = random_masks(rng, 25, universe=150)
        out = resolve_points(table(masks), 150)
        order = sorted(masks, key=lambda m: (-m.score, m.block_id, m.query_index))
        for p in range(150):
            claimants = [r for r, m in enumerate(order, start=1) if p in set(m.point_ids.tolist())]
            assert out[p] == (claimants[0] if claimants else 0)
        assert np.array_equal(out, reference_resolve_points(masks, 150))

    def test_partition_property(self, rng):
        masks = random_masks(rng, 25, universe=100)
        out = resolve_points(table(masks), 100)
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
            votes.add(BlockPrediction(0, semantic=(np.array(point_ids), np.array(classes))))
        assert not votes.counts.any()

    @pytest.mark.parametrize("point_ids, message", NON_INTEGER_IDS)
    def test_non_integer_point_ids_rejected(self, point_ids, message):
        votes = merging.SemanticVotes(20)
        with pytest.raises(ShapeMismatch, match=f"^block 0: per-block point_ids {message}"):
            votes.add(BlockPrediction(0, semantic=(point_ids, np.ones(len(point_ids), dtype=np.int64))))
        assert not votes.counts.any()

    @pytest.mark.parametrize("classes, message", [
        ([1.5, 2.7], "must be integers, got dtype float64"), ([True, False], "must be integers, got dtype bool"),
    ])
    def test_non_integer_classes_rejected(self, classes, message):
        votes = merging.SemanticVotes(2)
        with pytest.raises(ShapeMismatch, match=f"^block 0: per-block classes {message}"):
            votes.add(BlockPrediction(0, semantic=(np.array([0, 1]), classes)))
        assert not votes.counts.any()

    def test_empty_votes_of_any_dtype_accepted(self):
        votes = merging.SemanticVotes(2)
        votes.add(BlockPrediction(0, semantic=([], np.array([], dtype=np.float64))))
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
        votes.add(BlockPrediction(0, semantic=(np.array([0, 1]), np.array([1, 1]))))
        with pytest.raises(ShapeMismatch, match="block 1: semantic votes name point 1 more than once"):
            votes.add(BlockPrediction(1, semantic=(np.array(point_ids), np.array([2, 2, 2]))))
        assert votes.counts.tolist() == [[0, 1, 0], [0, 1, 0]]
        with pytest.raises(ShapeMismatch, match="semantic votes name point 1 more than once"):
            semantic_vote_arrays([np.array([0, 1]), np.array(point_ids)], [np.array([1, 1]), np.array([2, 2, 2])], 2)

    def test_counts_are_int32(self):
        votes = merging.SemanticVotes(2)
        votes.add(BlockPrediction(0, semantic=(np.array([0, 1]), np.array([2, 0]))))
        votes.add(BlockPrediction(1, semantic=(np.array([1]), np.array([0]))))
        assert votes.counts.dtype == np.int32
        assert votes.counts.tolist() == [[0, 0, 1], [2, 0, 0]]

    def test_counts_widen_before_they_could_overflow(self):
        top = np.iinfo(np.int32).max
        votes = merging.SemanticVotes(3)
        votes.add(BlockPrediction(0, semantic=(np.array([0, 1]), np.array([1, 0]))))
        votes.counts[0, 1] = top - 1
        votes._added = top - 1  # as if top - 1 blocks had voted
        # A block adds at most one vote per count, so a block of many points does not widen the counts.
        votes.add(BlockPrediction(1, semantic=(np.array([0, 1, 2]), np.array([1, 0, 2]))))
        assert votes.counts.dtype == np.int32 and votes.counts[0, 1] == top
        votes.add(BlockPrediction(2, semantic=(np.array([0]), np.array([1]))))
        assert votes.counts.dtype == np.int64
        assert votes.counts[0, 1] == top + 1
        assert votes.majority().tolist() == [1, 0, 2]


class TestMergeConfig:
    """The merge thresholds are carried and checked by ``PipelineConfig``."""

    def test_margin_must_stay_below_radius(self):
        from forestseg.errors import ConfigError
        from forestseg.pipeline import PipelineConfig

        with pytest.raises(ConfigError):
            PipelineConfig(boundary_margin=16.0, radius=16.0)


def test_block_prediction_cannot_be_changed_once_checked():
    # Its rules are checked once, when it is built, so a field assigned later would escape them.
    prediction = BlockPrediction(block_id=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prediction.block_id = True
    assert prediction.block_id == 3
