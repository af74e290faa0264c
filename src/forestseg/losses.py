"""Training-time losses with analytic gradients, association, and composition.

Every loss returns ``(value, gradient)`` where the gradient is taken with
respect to the first argument. Probabilities entering a logarithm are clamped
from below at ``EPS`` so saturated-correct predictions evaluate to exactly the
tiny true value instead of a clamp-induced floor; gradients account for the
clamp so they stay the true derivatives of the computed function.

The hyperparameters are fixed, as in the paper: the discriminative margins
``DELTA_V`` = 0.5 and ``DELTA_D`` = 1.5, and ``DECODER_LAYERS`` = 6. The
gradient checks take central differences at a step of 1e-5 and pass a loss
whose relative error stays below 1e-4.

Summations run in ascending index order for bitwise reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import N_CLASSES
from .errors import ConfigError, InputDataError, InternalInvariantError, InvalidLabel, ShapeMismatch
from .isa_select import DELTA_D, QuerySelection, VoxelLabels

EPS = 1e-7
DELTA_V = 0.5
SCORE_WEIGHT = 0.5
SEMANTIC_WEIGHT = 0.2
REG_WEIGHT = 0.001
DECODER_LAYERS = 6
_FD_STEP = 1e-5  # the central-difference step of the gradient checks
_GRAD_TOL = 1e-4  # the largest relative gradient error a check passes


class NoInstances(InputDataError):
    """An instance-level operation found no instances."""


class UnassociatedQuery(InputDataError):
    """A query voxel carries no ground-truth instance."""


class InvalidLoss(InternalInvariantError):
    """A loss component is negative or non-finite."""


def _sigmoid(z: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_pair(a, b, name_a: str, name_b: str):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{name_a} has length {len(a)} but {name_b} has length {len(b)}")
    if a.size == 0:
        raise ShapeMismatch(f"{name_a} must not be empty")
    return a, b


def _bce(p, y, dp) -> tuple[float, npt.NDArray[np.float64]]:
    """Mean BCE of probabilities ``p`` against ``y``, and its gradient by the
    loss's input, where ``dp`` is the derivative of ``p`` by that input."""
    u = np.maximum(p, EPS)
    v = np.maximum(1.0 - p, EPS)
    loss = float(-np.mean(y * np.log(u) + (1.0 - y) * np.log(v)))
    grad = (-(y * np.where(p > EPS, dp / u, 0.0)) + (1.0 - y) * np.where(1.0 - p > EPS, dp / v, 0.0)) / len(p)
    return loss, grad


def bce_mask_loss(logits, gt_mask) -> tuple[float, npt.NDArray[np.float64]]:
    """Mean binary cross-entropy over voxels, on raw mask logits."""
    z, y = _check_pair(logits, gt_mask, "logits", "gt_mask")
    p = _sigmoid(z)
    return _bce(p, y, p * (1.0 - p))


def dice_loss(logits, gt_mask) -> tuple[float, npt.NDArray[np.float64]]:
    """Dice loss ``1 - (2*sum(p*y) + 1) / (sum(p) + sum(y) + 1)``.

    The additive +1 keeps the ratio defined when both masks are empty.
    """
    z, y = _check_pair(logits, gt_mask, "logits", "gt_mask")
    p = _sigmoid(z)
    num = 2.0 * float(np.sum(p * y)) + 1.0
    den = float(np.sum(p)) + float(np.sum(y)) + 1.0
    loss = 1.0 - num / den
    d_p = -(2.0 * y * den - num) / den**2
    grad = d_p * p * (1.0 - p)
    return float(loss), grad


def score_target(pred_mask, gt_masks) -> float:
    """Best IoU of a binarized predicted mask against any ground-truth mask.

    Returns 0 for an empty prediction or when nothing overlaps.
    """
    pred = np.asarray(pred_mask, dtype=bool).reshape(-1)
    if not pred.any():
        return 0.0
    best = 0.0
    for gt in gt_masks:
        g = np.asarray(gt, dtype=bool).reshape(-1)
        if g.shape != pred.shape:
            raise ShapeMismatch("all masks must share one voxel universe")
        inter = float(np.sum(pred & g))
        if inter == 0.0:
            continue
        union = float(np.sum(pred | g))
        best = max(best, inter / union)
    return best


def score_loss(pred_scores, targets) -> tuple[float, npt.NDArray[np.float64]]:
    """Mean squared error between predicted and target confidence scores."""
    s_hat, s = _check_pair(pred_scores, targets, "pred_scores", "targets")
    if not (np.all(np.isfinite(s_hat)) and np.all(np.isfinite(s))):
        raise ShapeMismatch("scores must be finite")
    diff = s_hat - s
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / len(diff)
    return loss, grad


def binary_tree_loss(tree_prob, gt_binary) -> tuple[float, npt.NDArray[np.float64]]:
    """Mean BCE separating tree from non-tree voxels, on probabilities."""
    p, y = _check_pair(tree_prob, gt_binary, "tree_prob", "gt_binary")
    return _bce(p, y, 1.0)


def semantic_ce_loss(class_logits, gt_class) -> tuple[float, npt.NDArray[np.float64]]:
    """Mean softmax cross-entropy over the three semantic classes."""
    logits = np.asarray(class_logits, dtype=np.float64)
    y = np.asarray(gt_class, dtype=np.int64).reshape(-1)
    if logits.ndim != 2 or logits.shape[1] != N_CLASSES:
        raise ShapeMismatch(f"class_logits must have shape (M, {N_CLASSES}), got {logits.shape}")
    if logits.shape[0] != len(y):
        raise ShapeMismatch("class_logits and gt_class lengths differ")
    if len(y) == 0:
        raise ShapeMismatch("gt_class must not be empty")
    if y.min() < 0 or y.max() >= N_CLASSES:
        raise InvalidLabel(f"gt classes must be in [0, {N_CLASSES - 1}]")
    n = len(y)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), y]))
    softmax = np.exp(shifted - log_z[:, None])
    grad = softmax.copy()
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def discriminative_loss(embeddings, instance_ids) -> tuple[float, float, float, float, npt.NDArray[np.float64]]:
    """Pull/push embedding loss with L1 norms and squared hinges.

    The pull term penalizes voxels farther than ``DELTA_V`` (0.5) from their
    instance mean; the push term penalizes instance means closer than
    ``2 * DELTA_D`` (3.0) to each other (over ordered pairs); the regularizer is
    the mean L1 norm of the means, weighted by 0.001 in the total. Voxels
    with instance id < 1 are ignored and receive zero gradient. A single
    instance leaves the push term 0 (empty pair set).

    Returns ``(l_var, l_dist, l_reg, total, gradient)``.
    """
    f = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(instance_ids, dtype=np.int64).reshape(-1)
    if f.ndim != 2:
        raise ShapeMismatch(f"embeddings must be 2-D, got shape {f.shape}")
    if len(f) != len(ids):
        raise ShapeMismatch("embeddings and instance_ids lengths differ")
    unique_ids = np.unique(ids[ids >= 1])
    c = len(unique_ids)
    if c == 0:
        raise NoInstances("discriminative loss requires at least one instance")

    members = [np.flatnonzero(ids == uid) for uid in unique_ids]
    mus = np.stack([f[idx].mean(axis=0) for idx in members])
    grad = np.zeros_like(f)

    l_var = 0.0
    for ci, idx in enumerate(members):
        r = f[idx] - mus[ci]
        a = np.abs(r).sum(axis=1)
        hinge = np.maximum(a - DELTA_V, 0.0)
        n_c = len(idx)
        l_var += float(np.sum(hinge**2)) / n_c
        weighted_sign = hinge[:, None] * np.sign(r)
        grad[idx] += (2.0 / (c * n_c)) * weighted_sign
        grad[idx] -= (2.0 / (c * n_c**2)) * weighted_sign.sum(axis=0)
    l_var /= c

    l_dist = 0.0
    if c > 1:
        for c1 in range(c):
            for c2 in range(c1 + 1, c):
                d = float(np.abs(mus[c1] - mus[c2]).sum())
                g = 2.0 * DELTA_D - d
                if g > 0.0:
                    l_dist += 2.0 * g**2  # both ordered pairs
                    pull = (-4.0 / (c * (c - 1))) * g * np.sign(mus[c1] - mus[c2])
                    grad[members[c1]] += pull / len(members[c1])
                    grad[members[c2]] -= pull / len(members[c2])
        l_dist /= c * (c - 1)

    l_reg = float(np.abs(mus).sum()) / c
    for ci, idx in enumerate(members):
        grad[idx] += REG_WEIGHT * np.sign(mus[ci]) / (c * len(idx))

    total = l_var + l_dist + REG_WEIGHT * l_reg
    return float(l_var), float(l_dist), float(l_reg), float(total), grad


@dataclass(eq=False)
class Association:
    """One ground-truth instance id per associated query (one-to-many).

    ``query_positions`` index into the originating selection; queries whose
    voxel carries no instance are listed in ``dropped_positions``.
    """

    query_positions: npt.NDArray[np.int64]
    instance_ids: npt.NDArray[np.int64]
    dropped_positions: npt.NDArray[np.int64]


def one_to_many_associate(
    queries: QuerySelection, gt: VoxelLabels, on_unassociated: str = "raise"
) -> Association:
    """Map each query to the instance id of its voxel; no matching step.

    Several queries may share one instance. A query on an instance-0 voxel
    raises :class:`UnassociatedQuery` by default, or is flagged and dropped
    when ``on_unassociated`` is ``"drop"``.
    """
    if on_unassociated not in ("raise", "drop"):
        raise ConfigError(f"on_unassociated must be 'raise' or 'drop', got {on_unassociated!r}")
    if queries.k and queries.voxel_indices.max() >= gt.m:
        raise ShapeMismatch("selection references voxels beyond the label arrays")
    ids = gt.instance[queries.voxel_indices]
    bad = np.flatnonzero(ids < 1)
    if len(bad) and on_unassociated == "raise":
        raise UnassociatedQuery(
            f"{len(bad)} queries sit on instance-0 voxels (first at selection position {bad[0]})"
        )
    good = np.flatnonzero(ids >= 1)
    return Association(
        query_positions=good.astype(np.int64),
        instance_ids=ids[good],
        dropped_positions=bad.astype(np.int64),
    )


@dataclass(frozen=True)
class LossBreakdown:
    """All loss components plus the instance, per-layer total, and final sums."""

    bce: float
    dice: float
    score: float
    sem: float
    binary: float
    disc_var: float
    disc_dist: float
    disc_reg: float
    instance: float
    total: float
    final: float


def _per_layer(value, name: str) -> npt.NDArray[np.float64]:
    arr = np.asarray(value, dtype=np.float64).reshape(-1)
    if arr.size == 1:
        arr = np.full(DECODER_LAYERS, arr[0])
    elif arr.size != DECODER_LAYERS:
        raise ShapeMismatch(f"{name} must be a scalar or one value per layer ({DECODER_LAYERS}), got {arr.size}")
    return arr


def compose_losses(
    bce,
    dice,
    score,
    sem,
    binary: float,
    disc_var: float,
    disc_dist: float,
    disc_reg: float,
) -> LossBreakdown:
    """Combine components into the instance, layer-summed, and final losses.

    ``bce``, ``dice``, ``score``, and ``sem`` may be scalars (identical
    across the ``DECODER_LAYERS`` (6) decoder layers) or per-layer sequences.
    Per layer, ``instance = bce + dice + 0.5 * score``; the layer total sums
    ``instance + 0.2 * sem`` over all layers; the final loss adds the binary
    head loss and the discriminative loss (with its 0.001 regularizer).
    """
    per_layer = {name: _per_layer(v, name) for name, v in
                 (("bce", bce), ("dice", dice), ("score", score), ("sem", sem))}
    components = dict(per_layer)
    components.update(binary=binary, disc_var=disc_var, disc_dist=disc_dist, disc_reg=disc_reg)
    for name, value in components.items():
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise InvalidLoss(f"loss component {name} is not finite")
        if np.any(arr < 0):
            raise InvalidLoss(f"loss component {name} is negative")

    means = {name: float(np.mean(v)) for name, v in per_layer.items()}
    instance = means["bce"] + means["dice"] + SCORE_WEIGHT * means["score"]
    total = DECODER_LAYERS * (instance + SEMANTIC_WEIGHT * means["sem"])
    disc = float(disc_var) + float(disc_dist) + REG_WEIGHT * float(disc_reg)
    final = total + float(binary) + disc
    return LossBreakdown(
        bce=means["bce"],
        dice=means["dice"],
        score=means["score"],
        sem=means["sem"],
        binary=float(binary),
        disc_var=float(disc_var),
        disc_dist=float(disc_dist),
        disc_reg=float(disc_reg),
        instance=instance,
        total=total,
        final=final,
    )


# ---------------------------------------------------------------------------
# Finite-difference verification, shared by the test suite and `gradcheck`.


def finite_difference_gradient(fn, x) -> npt.NDArray[np.float64]:
    """Central finite differences of a scalar function, coordinate by coordinate, at a step of 1e-5."""
    x = np.ascontiguousarray(x, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + _FD_STEP
        hi = fn(x)
        xf[i] = orig - _FD_STEP
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * _FD_STEP)
    return grad


def _relative_error(analytic, numeric) -> float:
    a = np.asarray(analytic).reshape(-1)
    b = np.asarray(numeric).reshape(-1)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / denom


def _disc_sample(rng, kink_margin: float = 1e-3):
    # Redraw until every hinge slack and every L1 kink clears the margin,
    # since central differences are meaningless at subgradient points.
    for _ in range(200):
        n_inst = int(rng.integers(2, 5))
        ids = np.repeat(np.arange(1, n_inst + 1), rng.integers(3, 7, size=n_inst))
        f = rng.normal(0.0, 1.2, size=(len(ids), 5))
        ok = True
        mus = []
        for uid in range(1, n_inst + 1):
            sub = f[ids == uid]
            mu = sub.mean(axis=0)
            mus.append(mu)
            r = sub - mu
            if np.any(np.abs(r) < kink_margin) or np.any(np.abs(mu) < kink_margin):
                ok = False
                break
            if np.any(np.abs(np.abs(r).sum(axis=1) - DELTA_V) < kink_margin):
                ok = False
                break
        if ok:
            for i in range(n_inst):
                for j in range(i + 1, n_inst):
                    d = np.abs(mus[i] - mus[j])
                    if np.any(d < kink_margin) or abs(d.sum() - 2 * DELTA_D) < kink_margin:
                        ok = False
        if ok:
            return f, ids
    raise RuntimeError("could not draw a kink-free discriminative sample")


def run_gradient_checks(trials: int = 100, seed: int = 0) -> dict:
    """Check every analytic gradient against central differences at a step of 1e-5.

    Returns a report dict with one entry per loss: the worst relative error
    over all trials and whether it stayed below 1e-4.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def record(name: str, analytic, numeric) -> None:
        err = _relative_error(analytic, numeric)
        worst[name] = max(worst.get(name, 0.0), err)

    for _ in range(trials):
        n = int(rng.integers(20, 200))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        z = rng.normal(0.0, 2.0, size=n)
        record("bce", bce_mask_loss(z, y)[1], finite_difference_gradient(lambda x: bce_mask_loss(x, y)[0], z))
        record("dice", dice_loss(z, y)[1], finite_difference_gradient(lambda x: dice_loss(x, y)[0], z))

        m = int(rng.integers(5, 50))
        s_hat = rng.uniform(0.0, 1.0, size=m)
        s = rng.uniform(0.0, 1.0, size=m)
        record("score", score_loss(s_hat, s)[1], finite_difference_gradient(lambda x: score_loss(x, s)[0], s_hat))

        p = rng.uniform(0.05, 0.95, size=n)
        record(
            "binary",
            binary_tree_loss(p, y)[1],
            finite_difference_gradient(lambda x: binary_tree_loss(x, y)[0], p),
        )

        logits3 = rng.normal(0.0, 2.0, size=(n, N_CLASSES))
        cls = rng.integers(0, N_CLASSES, size=n)
        record(
            "sem",
            semantic_ce_loss(logits3, cls)[1],
            finite_difference_gradient(lambda x: semantic_ce_loss(x, cls)[0], logits3),
        )

        f, ids = _disc_sample(rng)
        record(
            "disc",
            discriminative_loss(f, ids)[4],
            finite_difference_gradient(lambda x: discriminative_loss(x, ids)[3], f),
        )

    return {
        "trials": trials,
        "h": _FD_STEP,
        "tolerance": _GRAD_TOL,
        "losses": {name: {"max_rel_err": err, "pass": err < _GRAD_TOL} for name, err in sorted(worst.items())},
        "all_pass": all(err < _GRAD_TOL for err in worst.values()),
    }
