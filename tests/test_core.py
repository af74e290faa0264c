"""Point-cloud validation, and the class and message of each rejected point-cloud
or voxel-label input."""

import numpy as np
import pytest

from forestseg.core import PointCloud
from forestseg.errors import InvalidLabel, ShapeMismatch
from forestseg.isa_select import VoxelLabels, voxel_labels_from_points, voxelize


class TestPointCloudValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            PointCloud(positions=np.zeros((3, 3)), semantic=[0, 0])

    def test_tree_instance_requires_tree_class(self):
        with pytest.raises(InvalidLabel):
            PointCloud(positions=np.zeros((1, 3)), semantic=[0], instance=[2])

    def test_ground_instance_requires_ground_class(self):
        with pytest.raises(InvalidLabel):
            PointCloud(positions=np.zeros((1, 3)), semantic=[1], instance=[0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: PointCloud(positions=np.zeros((3, 2))), ShapeMismatch,
                 r"positions must have shape \(N, 3\), got \(3, 2\)", id="positions-not-xyz"),
    pytest.param(lambda: PointCloud(positions=np.zeros((2, 3)), semantic=[0, 3]), InvalidLabel,
                 r"semantic classes must be in \{0 \(ground\), 1 \(wood\), 2 \(leaf\)\}", id="semantic-class"),
    pytest.param(lambda: PointCloud(positions=np.zeros((2, 3)), instance=[0, -1]), InvalidLabel,
                 "instance ids must be >= 0", id="negative-instance"),
    pytest.param(lambda: VoxelLabels(semantic=[0, 1], instance=[0]), ShapeMismatch,
                 "semantic and instance label arrays must have equal length", id="voxel-label-lengths"),
    pytest.param(lambda: voxel_labels_from_points(voxelize(PointCloud(positions=np.eye(3)), 0.5),
                                                  PointCloud(np.zeros((2, 3)), semantic=[0, 0], instance=[0, 0])),
                 ShapeMismatch, "voxelization covers 3 points, cloud has 2", id="voxelization-of-another-cloud"),
])
def test_rejections_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=message):
        call()
