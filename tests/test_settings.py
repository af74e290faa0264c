"""Numeric settings: every config field and stage parameter is a real number
(an integer where the setting counts), checked by its rule and stored as a
Python number, or a ConfigError."""

import dataclasses
import json
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestseg.core import PointCloud
from forestseg.errors import ConfigError
from forestseg.isa_select import EmbeddingField, filter_tree_voxels, fps, voxelize
from forestseg.losses import run_gradient_checks
from forestseg.merging import BlockMasks, MaskTable, discard_boundary_masks, score_filter, score_nms
from forestseg.metrics import match_instances
from forestseg.pipeline import PipelineConfig, effective_threads, run_pipeline, run_pipeline_from_blocks
from forestseg.synthgen import MAX_SCENE_POINTS, CorruptionParams, ForestParams, generate_forest
from forestseg.tiling import Tiling, sliding_window_centers

SQRT2 = math.sqrt(2)
LENGTH = lambda v: v > 0 and math.isfinite(v * v)
FRACTION = lambda v: 0.0 <= v <= 1.0
FINITE = lambda v: math.isfinite(v) and v >= 0
RANGE = lambda lo, hi: 0 < lo <= hi < math.inf
NONNEGATIVE = lambda v: v >= 0
ANY = lambda *v: True
# Each field's tests, as the checks before one shared rule wrote them, with every other field at its default:
# the field's kind ("int", "float" or a pair of either), the test of each number, which must hold both as
# given and as stored, and the test of the stored numbers together and with the other fields.
FIELD_TESTS = {
    (PipelineConfig, "radius"): ("float", LENGTH, lambda v: not 4.0 > v * SQRT2 and 0.5 < v),
    (PipelineConfig, "stride"): ("float", LENGTH, lambda v: not v > 16.0 * SQRT2),
    (PipelineConfig, "nms_iou"): ("float", FRACTION, ANY),
    (PipelineConfig, "score_threshold"): ("float", FRACTION, ANY),
    (PipelineConfig, "boundary_margin"): ("float", NONNEGATIVE, lambda v: v < 16.0),
    (PipelineConfig, "seed"): ("int", NONNEGATIVE, ANY),
    (ForestParams, "n_trees"): ("int", lambda v: v >= 1, lambda v: 8000 <= MAX_SCENE_POINTS - v * 800),
    (ForestParams, "plot_size"): ("float", LENGTH, lambda v: 20.0 * v**2 <= MAX_SCENE_POINTS - 24_000),
    (ForestParams, "trunk_height_range"): ("float pair", FINITE, RANGE),
    (ForestParams, "crown_radius_range"): ("float pair", FINITE, RANGE),
    (ForestParams, "points_per_tree_range"): ("int pair", NONNEGATIVE,
                                              lambda lo, hi: RANGE(lo, hi) and 30 * max(hi, 40) <= MAX_SCENE_POINTS - 8000),
    (ForestParams, "understory_fraction"): ("float", FRACTION, ANY),
    (ForestParams, "ground_density"): ("float", FINITE, lambda v: v * 400.0 <= MAX_SCENE_POINTS - 24_000),
    (ForestParams, "min_spacing"): ("float", FINITE, ANY),
    (ForestParams, "seed"): ("int", NONNEGATIVE, ANY),
    **{(CorruptionParams, name): ("float", FRACTION, ANY)
       for name in ("split_prob", "merge_prob", "drop_prob", "point_noise")},
    (CorruptionParams, "score_noise"): ("float", FINITE, ANY),
}
INT_TYPES = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_TYPES = (float, np.float16, np.float32, np.float64, np.longdouble)
OTHER_VALUES = (True, False, np.True_, "0.5", None, Decimal("0.5"), Fraction(1, 3), [1.0], 1j)
ONE_POINT = PointCloud(np.zeros((1, 3)))


@st.composite
def setting_values(draw):
    """A Python or numpy integer or float of any width, or a value of another kind."""
    kind = draw(st.sampled_from(["int", "float", "other"]))
    if kind == "int":
        value = draw(st.one_of(st.integers(-3, 40), st.integers(-2**65, 2**65), st.sampled_from([10**400, -10**400])))
        width = draw(st.sampled_from(INT_TYPES))
        if width is int or not np.iinfo(width).min <= value <= np.iinfo(width).max:
            return value
        return width(value)
    if kind == "float":
        value = draw(st.one_of(st.floats(0.0, 1.0), st.floats(-2.0, 40.0), st.floats()))
        with np.errstate(over="ignore"):
            return draw(st.sampled_from(FLOAT_TYPES))(value)
    return draw(st.sampled_from(OTHER_VALUES))


def passes(kind: str, rule, relation, *values) -> bool:
    """Whether ``values`` should build a config: each a real number of ``kind`` (no bool) that a float holds
    if ``kind`` is float and that keeps ``rule`` as given and as the Python number stored, and the stored
    numbers keep ``relation``."""
    integral = kind.startswith("int")
    stored = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
            return False
        try:
            stored.append(int(value) if isinstance(value, numbers.Integral) else float(value))
            if not integral:
                float(stored[-1])
        except OverflowError:
            return False
    try:
        return all(map(rule, values)) and all(map(rule, stored)) and bool(relation(*stored))
    except OverflowError:
        return False


def python_number_of(value, stored) -> bool:
    """Whether ``stored`` is ``value`` as a Python ``int`` (for an integer) or ``float``."""
    if isinstance(value, numbers.Integral):
        return type(stored) is int and stored == int(value)
    return type(stored) is float and stored == float(value)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_config_field_is_rejected_or_stored_as_a_python_number(data):
    (cls, name), (kind, rule, relation) = data.draw(st.sampled_from(list(FIELD_TESTS.items())))
    if kind.endswith("pair"):
        value = tuple(data.draw(st.lists(setting_values(), min_size=1, max_size=3)))
        expected = len(value) == 2 and passes(kind, rule, relation, *value)
    else:
        value = data.draw(setting_values())
        expected = passes(kind, rule, relation, value)
    try:
        config = cls(**{name: value})
    except ConfigError:
        assert not expected
        return
    assert expected
    stored = getattr(config, name)
    if kind.endswith("pair"):
        assert type(stored) is tuple and all(map(python_number_of, value, stored))
    else:
        assert python_number_of(value, stored)
    fields = json.loads(json.dumps(dataclasses.asdict(config), allow_nan=False))
    assert cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in fields.items()}) == config
    if cls is PipelineConfig:
        report = json.loads(json.dumps(run_pipeline_from_blocks([], ONE_POINT, config).report, allow_nan=False))
        assert PipelineConfig(**report["config"]) == config


@pytest.mark.parametrize("build, message", [
    (lambda: PipelineConfig(radius=True, stride=True, boundary_margin=False), "radius must be a float, got True"),
    (lambda: PipelineConfig(radius=10**400), "radius must be a float, got 1000"),
    # Python prints no integer of more than 4,300 digits, so these are given by their digit count.
    (lambda: PipelineConfig(radius=10**5000), "radius must be a float, got <an integer of 5,001 digits>$"),
    (lambda: PipelineConfig(seed=-10**5000), "seed must be >= 0, got <a negative integer of 5,001 digits>$"),
    (lambda: ForestParams(n_trees=10**5000), "got up to <an integer of 5,003 digits> tree points$"),
    (lambda: ForestParams(points_per_tree_range=(300, 10**5000)), "got up to <an integer of 5,002 digits> tree"),
    (lambda: PipelineConfig(score_threshold=None), "score_threshold must be a float, got None"),
    (lambda: CorruptionParams(split_prob="0.5"), "split_prob must be a float, got '0.5'"),
    (lambda: CorruptionParams(score_noise=Decimal("0.1")), r"score_noise must be a float, got Decimal\('0.1'\)"),
    (lambda: ForestParams(trunk_height_range=(1.0, 2.0, 3.0)),
     r"trunk_height_range must be a \(low, high\) pair, got \(1.0, 2.0, 3.0\)"),
    (lambda: ForestParams(crown_radius_range=2.0), r"crown_radius_range must be a \(low, high\) pair, got 2.0"),
    (lambda: ForestParams(trunk_height_range=(1.0, 10**400)), "each trunk_height_range bound must be a float"),
    (lambda: ForestParams(trunk_height_range=(-1.0, 2.0)),
     r"trunk_height_range must be a finite positive \(low, high\) range, got \(-1.0, 2.0\)"),
])
def test_config_values_that_are_no_setting_rejected(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_numpy_numbers_stored_as_python_numbers():
    config = PipelineConfig(radius=np.int64(16), nms_iou=np.float32(0.25), boundary_margin=Fraction(1, 2))
    assert (config.radius, config.nms_iou, config.boundary_margin) == (16, 0.25, 0.5)
    assert [type(config.radius), type(config.nms_iou), type(config.boundary_margin)] == [int, float, float]
    assert json.loads(json.dumps(dataclasses.asdict(config)))["radius"] == 16
    # An int given for a float field stays an int, and a wide float range is no narrower than it was.
    assert ForestParams(trunk_height_range=(1, 1e200)).trunk_height_range == (1, 1e200)


def test_integer_lengths_beyond_int64_run():
    # An int stride once multiplied the grid steps as an int64 and overflowed after the config was accepted.
    cloud = generate_forest(ForestParams(n_trees=3, plot_size=6.0))
    result = run_pipeline(cloud, PipelineConfig(radius=10**30, stride=10**30, boundary_margin=0))
    assert result.report["config"]["stride"] == 10**30 and result.evaluation.f1 == 1.0


MASKS = BlockMasks.pack([[0]], [0.5])
EMPTY_TABLE = MaskTable(*(np.empty(0, dtype=np.int64),) * 2, np.empty(0), np.empty(0, dtype=np.int64), sets=[])
POSITIONS = np.zeros((1, 3))


@pytest.mark.parametrize("call, message", [
    (lambda: effective_threads(1.5), "thread count must be an integer, got 1.5"),
    (lambda: effective_threads(True), "thread count must be an integer, got True"),
    (lambda: fps(np.zeros((3, 2)), 2.5), "k must be an integer, got 2.5"),
    (lambda: run_gradient_checks(trials=2.5), "trials must be an integer, got 2.5"),
    (lambda: run_gradient_checks(seed=np.float64(1.0)), "seed must be an integer"),
    (lambda: filter_tree_voxels(EmbeddingField(np.zeros((1, 5)), np.ones(1)), "0.5"),
     "threshold must be a float, got '0.5'"),
    (lambda: score_filter(MASKS, None), "score threshold must be a float, got None"),
    (lambda: score_nms(EMPTY_TABLE, True), "NMS IoU threshold must be a float, got True"),
    (lambda: discard_boundary_masks(MASKS, (0.0, 0.0), 10**400, POSITIONS, 0.5), "radius must be a float"),
    (lambda: discard_boundary_masks(MASKS, (0.0, 0.0), 16.0, POSITIONS, False),
     "boundary margin must be a float, got False"),
    (lambda: sliding_window_centers((0.0, 0.0), (1.0, 1.0), True), "stride must be a float, got True"),
    (lambda: Tiling(POSITIONS, np.zeros((1, 2)), "16"), "radius must be a float, got '16'"),
    (lambda: match_instances([1], [1], iou_threshold=Decimal("0.5")), "IoU threshold must be a float"),
    (lambda: voxelize(ONE_POINT, True), "resolution must be a float, got True"),
    (lambda: voxelize(ONE_POINT, "0.2"), "resolution must be a float, got '0.2'"),
    (lambda: voxelize(ONE_POINT, None), "resolution must be a float, got None"),
    (lambda: voxelize(ONE_POINT, 10**400), "resolution must be a float, got 1000"),
    (lambda: voxelize(ONE_POINT, float("nan")), "resolution must be finite and >= 0, got nan"),
    (lambda: voxelize(ONE_POINT, 0), "resolution must be positive, got 0$"),
])
def test_stage_parameters_that_are_no_setting_rejected(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(value=setting_values())
def test_voxelize_takes_exactly_the_positive_finite_resolutions(value):
    # The one point at the origin keeps every voxel key at 0, so no resolution overflows one.
    expected = passes("float", lambda v: math.isfinite(v) and v > 0, ANY, value)
    try:
        vox = voxelize(ONE_POINT, value)
    except ConfigError:
        assert not expected
        return
    assert expected and type(vox.resolution) is float and vox.resolution == float(value)
