"""Loss values against closed forms and analytic gradients against finite
differences."""

import math

import numpy as np
import pytest

from forestseg.errors import ConfigError, InvalidLabel, ShapeMismatch
from forestseg.isa_select import QuerySelection, VoxelLabels
from forestseg.losses import (
    InvalidLoss,
    NoInstances,
    UnassociatedQuery,
    bce_mask_loss,
    binary_tree_loss,
    compose_losses,
    dice_loss,
    discriminative_loss,
    finite_difference_gradient,
    one_to_many_associate,
    run_gradient_checks,
    score_loss,
    score_target,
    semantic_ce_loss,
)

FD_TOL = 1e-5


def rel_err(a, b):
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestBceMaskLoss:
    def test_uniform_logits_give_ln2(self, rng):
        y = rng.integers(0, 2, size=64).astype(float)
        loss, _ = bce_mask_loss(np.zeros(64), y)
        assert abs(loss - math.log(2)) < 1e-9

    def test_saturated_correct_is_tiny(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        z = np.where(y == 1, 30.0, -30.0)
        loss, _ = bce_mask_loss(z, y)
        assert loss < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            y = rng.integers(0, 2, size=200).astype(float)
            z = rng.normal(0, 2, size=200)
            _, grad = bce_mask_loss(z, y)
            fd = finite_difference_gradient(lambda x: bce_mask_loss(x, y)[0], z)
            assert rel_err(grad, fd) < FD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bce_mask_loss(np.zeros(3), np.zeros(4))


class TestDiceLoss:
    def test_saturated_correct_is_tiny(self, rng):
        y = rng.integers(0, 2, size=50).astype(float)
        y[0] = 1.0
        z = np.where(y == 1, 30.0, -30.0)
        loss, _ = dice_loss(z, y)
        assert loss < 1e-9

    def test_smoothing_term_on_empty_masks(self):
        # probabilities underflow to exactly 0; loss = 1 - 1/1 = 0
        loss, _ = dice_loss(np.full(20, -800.0), np.zeros(20))
        assert loss == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            y = rng.integers(0, 2, size=80).astype(float)
            z = rng.normal(0, 2, size=80)
            _, grad = dice_loss(z, y)
            fd = finite_difference_gradient(lambda x: dice_loss(x, y)[0], z)
            assert rel_err(grad, fd) < FD_TOL


class TestScoreTarget:
    def test_identity(self):
        gt = np.zeros(10, dtype=bool)
        gt[2:6] = True
        assert score_target(gt, [gt]) == 1.0

    def test_disjoint_gives_zero(self):
        pred = np.zeros(10, dtype=bool)
        pred[:3] = True
        gt = np.zeros(10, dtype=bool)
        gt[5:] = True
        assert score_target(pred, [gt]) == 0.0

    def test_best_of_two_enumerated(self):
        # pred {v0, v1}; A = {v0}: IoU 1/2; B = {v1, v2, v3}: IoU 1/4
        pred = np.array([1, 1, 0, 0], dtype=bool)
        a = np.array([1, 0, 0, 0], dtype=bool)
        b = np.array([0, 1, 1, 1], dtype=bool)
        assert score_target(pred, [a, b]) == 0.5

    def test_empty_prediction_gives_zero(self):
        assert score_target(np.zeros(5, dtype=bool), [np.ones(5, dtype=bool)]) == 0.0

    def test_matches_set_oracle(self, rng):
        universe = 40
        pred = rng.random(universe) < 0.3
        gts = [rng.random(universe) < 0.3 for _ in range(5)]
        expected = 0.0
        pred_set = set(np.flatnonzero(pred).tolist())
        if pred_set:
            for g in gts:
                g_set = set(np.flatnonzero(g).tolist())
                if pred_set & g_set:
                    expected = max(expected, len(pred_set & g_set) / len(pred_set | g_set))
        assert score_target(pred, gts) == pytest.approx(expected, abs=1e-12)


class TestScoreLoss:
    def test_single_pair(self):
        loss, _ = score_loss([0.8], [0.5])
        assert loss == pytest.approx(0.09, abs=1e-12)

    def test_identity_is_zero(self, rng):
        s = rng.uniform(0, 1, size=12)
        loss, _ = score_loss(s, s)
        assert loss == 0.0

    def test_matches_formula_and_gradient(self, rng):
        s_hat = rng.uniform(0, 1, size=50)
        s = rng.uniform(0, 1, size=50)
        loss, grad = score_loss(s_hat, s)
        assert loss == pytest.approx(np.mean((s_hat - s) ** 2), abs=1e-15)
        assert np.allclose(grad, 2 * (s_hat - s) / 50, atol=1e-15)
        fd = finite_difference_gradient(lambda x: score_loss(x, s)[0], s_hat)
        assert rel_err(grad, fd) < FD_TOL


def disc_formula_oracle(f, ids, dv, dd):
    """Direct transcription of the pull/push/regularizer sums."""
    unique = sorted(set(int(i) for i in ids if i >= 1))
    c = len(unique)
    mus = {u: f[ids == u].mean(axis=0) for u in unique}
    l_var = 0.0
    for u in unique:
        sub = f[ids == u]
        hinges = [max(np.abs(x - mus[u]).sum() - dv, 0.0) ** 2 for x in sub]
        l_var += sum(hinges) / len(sub)
    l_var /= c
    l_dist = 0.0
    if c > 1:
        for u1 in unique:
            for u2 in unique:
                if u1 == u2:
                    continue
                d = np.abs(mus[u1] - mus[u2]).sum()
                l_dist += max(2 * dd - d, 0.0) ** 2
        l_dist /= c * (c - 1)
    l_reg = sum(np.abs(mus[u]).sum() for u in unique) / c
    return l_var, l_dist, l_reg, l_var + l_dist + 0.001 * l_reg


class TestDiscriminativeLoss:
    def test_hinges_inactive(self):
        # identical embeddings per instance, means separated by >= 2 * delta_d
        codes = np.array([[0.0] * 5, [3.0, 0, 0, 0, 0], [0, 0, 3.0, 0, 3.0]])
        ids = np.repeat([1, 2, 3], 4)
        f = codes[np.repeat([0, 1, 2], 4)]
        l_var, l_dist, l_reg, total, _ = discriminative_loss(f, ids)
        assert l_var == 0.0
        assert l_dist == 0.0
        assert l_reg == pytest.approx(np.mean([0.0, 3.0, 6.0]), abs=1e-12)
        assert total == pytest.approx(0.001 * l_reg, abs=1e-15)

    def test_single_instance_no_push_term(self, rng):
        f = rng.normal(size=(6, 5))
        _, l_dist, _, _, _ = discriminative_loss(f, np.ones(6, dtype=int))
        assert l_dist == 0.0

    def test_matches_formula_oracle(self, rng):
        for _ in range(20):
            ids = np.repeat([1, 2, 3], rng.integers(3, 8, size=3))
            f = rng.normal(0, 1.0, size=(len(ids), 5))
            l_var, l_dist, l_reg, total, _ = discriminative_loss(f, ids)
            ev, ed, er, et = disc_formula_oracle(f, ids, 0.5, 1.5)
            assert l_var == pytest.approx(ev, rel=1e-12)
            assert l_dist == pytest.approx(ed, rel=1e-12)
            assert l_reg == pytest.approx(er, rel=1e-12)
            assert total == pytest.approx(et, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        from forestseg.losses import _disc_sample

        for _ in range(10):
            f, ids = _disc_sample(rng)
            grad = discriminative_loss(f, ids)[4]
            fd = finite_difference_gradient(lambda x: discriminative_loss(x, ids)[3], f)
            assert rel_err(grad, fd) < 1e-4

    def test_background_voxels_excluded(self, rng):
        f = rng.normal(size=(8, 5))
        ids = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        _, _, _, _, grad = discriminative_loss(f, ids)
        assert np.all(grad[4:] == 0.0)

    def test_no_instances(self, rng):
        with pytest.raises(NoInstances):
            discriminative_loss(rng.normal(size=(4, 5)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("offset, l_var", [(0.25, 0.0), (0.5, 0.0), (0.75, 0.0625)])
    def test_pull_hinge_starts_at_delta_v(self, offset, l_var):
        # Two voxels at L1 distance `offset` from their mean, the origin: the pull term is (offset - 0.5)^2 past 0.5.
        f = np.zeros((2, 5))
        f[:, 0] = [offset, -offset]
        assert discriminative_loss(f, [1, 1])[0] == l_var

    @pytest.mark.parametrize("gap, l_dist", [(2.0, 1.0), (3.0, 0.0), (4.0, 0.0)])
    def test_push_hinge_ends_at_twice_delta_d(self, gap, l_dist):
        # Two one-voxel instances whose means are `gap` apart in L1: the push term is (3 - gap)^2 below 3.
        f = np.zeros((2, 5))
        f[:, 0] = [gap / 2, -gap / 2]
        assert discriminative_loss(f, [1, 2])[1] == l_dist


class TestBinaryTreeLoss:
    def test_half_probabilities_give_ln2(self, rng):
        y = rng.integers(0, 2, size=30).astype(float)
        loss, _ = binary_tree_loss(np.full(30, 0.5), y)
        assert abs(loss - math.log(2)) < 1e-12

    def test_perfect_probabilities_are_tiny(self):
        y = np.array([1.0, 0.0, 1.0])
        loss, _ = binary_tree_loss(y.copy(), y)
        assert loss < 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            y = rng.integers(0, 2, size=100).astype(float)
            p = rng.uniform(0.05, 0.95, size=100)
            _, grad = binary_tree_loss(p, y)
            fd = finite_difference_gradient(lambda x: binary_tree_loss(x, y)[0], p)
            assert rel_err(grad, fd) < FD_TOL


class TestSemanticCeLoss:
    def test_uniform_logits_give_ln3(self, rng):
        y = rng.integers(0, 3, size=40)
        loss, _ = semantic_ce_loss(np.zeros((40, 3)), y)
        assert abs(loss - math.log(3)) < 1e-9

    def test_saturated_one_hot_is_tiny(self):
        y = np.array([0, 1, 2, 1])
        logits = np.full((4, 3), -40.0)
        logits[np.arange(4), y] = 40.0
        loss, _ = semantic_ce_loss(logits, y)
        assert loss < 1e-9

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.normal(0, 2, size=(60, 3))
        y = rng.integers(0, 3, size=60)
        _, grad = semantic_ce_loss(logits, y)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        softmax = exp / exp.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[y]
        assert np.allclose(grad, (softmax - onehot) / 60, atol=1e-12)
        fd = finite_difference_gradient(lambda x: semantic_ce_loss(x, y)[0], logits)
        assert rel_err(grad, fd) < FD_TOL

    def test_invalid_class(self):
        with pytest.raises(InvalidLabel):
            semantic_ce_loss(np.zeros((2, 3)), [0, 3])


class TestOneToManyAssociate:
    def _labels(self, instances):
        inst = np.asarray(instances)
        return VoxelLabels(semantic=np.where(inst >= 1, 1, 0), instance=inst)

    def _selection(self, indices):
        return QuerySelection(voxel_indices=np.asarray(indices), method="isa", k_requested=len(indices))

    def test_lookup(self):
        assoc = one_to_many_associate(self._selection([3]), self._labels([0, 0, 0, 7]))
        assert assoc.instance_ids.tolist() == [7]

    def test_many_queries_one_tree(self):
        assoc = one_to_many_associate(self._selection([0, 1]), self._labels([4, 4]))
        assert assoc.instance_ids.tolist() == [4, 4]

    def test_ground_query_raises(self):
        with pytest.raises(UnassociatedQuery):
            one_to_many_associate(self._selection([0]), self._labels([0]))

    def test_ground_query_dropped_when_requested(self):
        assoc = one_to_many_associate(
            self._selection([0, 1, 2]), self._labels([5, 0, 6]), on_unassociated="drop"
        )
        assert assoc.instance_ids.tolist() == [5, 6]
        assert assoc.dropped_positions.tolist() == [1]


class TestComposeLosses:
    def test_instance_arithmetic(self):
        bd = compose_losses(1.0, 2.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert bd.instance == 5.0

    def test_layer_sum_arithmetic(self):
        bd = compose_losses(0.0, 5.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0)
        assert bd.instance == 5.0
        assert bd.total == 42.0

    def test_final_arithmetic(self):
        bd = compose_losses(0.0, 5.0, 0.0, 10.0, 1.0, 2.0, 0.0, 0.0)
        assert bd.total == 42.0
        assert bd.final == 45.0

    def test_per_layer_sequences(self):
        bd = compose_losses([1, 2, 3, 4, 5, 6], [0] * 6, [0] * 6, [5] * 6, 0, 0, 0, 0)
        assert bd.total == pytest.approx(sum(v + 0.2 * 5 for v in (1, 2, 3, 4, 5, 6)), rel=1e-12)
        with pytest.raises(ShapeMismatch, match=r"bce must be a scalar or one value per layer \(6\), got 3"):
            compose_losses([1, 2, 3], 0, 0, 0, 0, 0, 0, 0)

    def test_linearity_by_superposition(self, rng):
        parts_a = rng.uniform(0, 2, size=8)
        parts_b = rng.uniform(0, 2, size=8)
        fa = compose_losses(*parts_a).final
        fb = compose_losses(*parts_b).final
        fab = compose_losses(*(parts_a + parts_b)).final
        assert fab == pytest.approx(fa + fb, rel=1e-12)

    def test_negative_component_rejected(self):
        with pytest.raises(InvalidLoss):
            compose_losses(-0.1, 0, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("position, name", enumerate(["bce", "dice", "score", "sem"]))
    def test_bad_layer_count(self, position, name):
        parts = [0.0] * 8
        parts[position] = [0.0] * 5
        with pytest.raises(ShapeMismatch, match=rf"^{name} must be a scalar or one value per layer \(6\), got 5$"):
            compose_losses(*parts)


class TestLossProperties:
    def test_non_negative_and_permutation_invariant(self, rng):
        for _ in range(5):
            n = 60
            y = rng.integers(0, 2, size=n).astype(float)
            z = rng.normal(0, 2, size=n)
            perm = rng.permutation(n)
            for fn in (bce_mask_loss, dice_loss):
                loss, _ = fn(z, y)
                loss_p, _ = fn(z[perm], y[perm])
                assert loss >= 0.0
                assert loss == pytest.approx(loss_p, rel=1e-12)

    def test_gradient_check_suite_passes(self):
        report = run_gradient_checks(trials=10, seed=7)
        assert report["all_pass"], report

    def test_finite_difference_step_is_1e_5(self):
        # At 0 the central difference of x^3 is ((h^3) - (-h^3)) / (2h) = h^2, not the derivative 0.
        fd = finite_difference_gradient(lambda x: float(np.sum(x**3)), np.zeros(4))
        assert fd == pytest.approx(np.full(4, 1e-10), rel=1e-9)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: score_loss([], []), ShapeMismatch, "pred_scores must not be empty", id="empty-pair"),
    pytest.param(lambda: score_target([1, 0, 1], [[1, 0]]), ShapeMismatch,
                 "all masks must share one voxel universe", id="score-target-universe"),
    pytest.param(lambda: score_loss([np.nan], [0.5]), ShapeMismatch, "scores must be finite", id="nan-score"),
    pytest.param(lambda: semantic_ce_loss(np.zeros((2, 2)), [0, 1]), ShapeMismatch,
                 r"class_logits must have shape \(M, 3\), got \(2, 2\)", id="logit-columns"),
    pytest.param(lambda: semantic_ce_loss(np.zeros((2, 3)), [0]), ShapeMismatch,
                 "class_logits and gt_class lengths differ", id="logit-rows"),
    pytest.param(lambda: semantic_ce_loss(np.zeros((0, 3)), []), ShapeMismatch, "gt_class must not be empty",
                 id="empty-gt-class"),
    pytest.param(lambda: discriminative_loss(np.zeros(3), [1, 1, 1]), ShapeMismatch,
                 r"embeddings must be 2-D, got shape \(3,\)", id="embeddings-1d"),
    pytest.param(lambda: discriminative_loss(np.zeros((3, 5)), [1, 1]), ShapeMismatch,
                 "embeddings and instance_ids lengths differ", id="embedding-rows"),
    pytest.param(lambda: one_to_many_associate(QuerySelection([0], "isa", 1), VoxelLabels([1], [1]), "ignore"),
                 ConfigError, "on_unassociated must be 'raise' or 'drop', got 'ignore'", id="on-unassociated"),
    pytest.param(lambda: one_to_many_associate(QuerySelection([1], "isa", 1), VoxelLabels([1], [1])), ShapeMismatch,
                 "selection references voxels beyond the label arrays", id="selection-beyond-labels"),
    pytest.param(lambda: compose_losses(np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), InvalidLoss,
                 "loss component bce is not finite", id="nan-component"),
])
def test_rejections_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
