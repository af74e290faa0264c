"""Metamorphic relations: transformations of the input that must leave the
pipeline's output unchanged, or change it in a known way.

The sliding-window grid is anchored at the cloud's xy minimum, and every
distance test compares squares of coordinate differences. So a transformation
that is exact in floating point and maps the grid onto itself (a shift of
coordinates that are multiples of a small power of two, or a doubling of
every length) must give the same labels and report.
"""

import numpy as np
import pytest

from forestseg.core import PointCloud
from forestseg.pipeline import PipelineConfig, run_pipeline
from forestseg.synthgen import CorruptionParams, ForestParams, generate_forest

# Every merge stage drops masks under NOISY at this radius and stride.
CONFIG = PipelineConfig(radius=8.0, stride=4.0, boundary_margin=0.5, seed=7)
NOISY = CorruptionParams(split_prob=0.4, merge_prob=0.3, point_noise=0.3, score_noise=0.1)


@pytest.fixture(scope="module")
def scene():
    cloud = generate_forest(ForestParams(n_trees=30, seed=0))  # 21,772 points on 20 m
    # Multiples of 2**-20 under 2**11 keep every bit through a shift by 2**10.
    return _moved(cloud, np.round(cloud.positions * 2.0**20) / 2.0**20)


def _moved(cloud, positions):
    return PointCloud(positions=positions, semantic=cloud.semantic, instance=cloud.instance)


def _assert_same_output(a, b, ignore_config=False):
    assert np.array_equal(a.merge.instance, b.merge.instance)
    assert np.array_equal(a.merge.semantic, b.merge.semantic)
    report_a, report_b = a.report, b.report
    if ignore_config:
        del report_a["config"], report_b["config"]
    assert report_a == report_b


def test_power_of_two_shift_of_rounded_cloud_changes_nothing(scene):
    shifted = _moved(scene, scene.positions + 2.0**10)
    _assert_same_output(run_pipeline(scene, CONFIG), run_pipeline(shifted, CONFIG))


@pytest.mark.parametrize("corruption", [CorruptionParams(), NOISY], ids=["clean", "noisy"])
def test_doubling_every_length_changes_nothing_but_the_config(scene, corruption):
    doubled = PipelineConfig(radius=2 * CONFIG.radius, stride=2 * CONFIG.stride,
                             boundary_margin=2 * CONFIG.boundary_margin, seed=CONFIG.seed)
    base = run_pipeline(scene, CONFIG, corruption)
    assert base.report["masks"]["after_nms"] > 0
    _assert_same_output(base, run_pipeline(_moved(scene, 2 * scene.positions), doubled, corruption),
                        ignore_config=True)


def test_point_order_permutes_the_labels_under_a_clean_oracle(scene, rng):
    order = rng.permutation(scene.n)
    permuted = PointCloud(positions=scene.positions[order], semantic=scene.semantic[order],
                          instance=scene.instance[order])
    base, moved = run_pipeline(scene, CONFIG), run_pipeline(permuted, CONFIG)
    assert np.array_equal(moved.merge.instance, base.merge.instance[order])
    assert np.array_equal(moved.merge.semantic, base.merge.semantic[order])
    assert moved.report == base.report
