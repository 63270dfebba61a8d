import numpy as np
import pytest

from gsmspdc.records import Profile2D, Scan1D


class TestScan1D:
    def test_rejects_unsorted_axis(self):
        with pytest.raises(ValueError):
            Scan1D(xs=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Scan1D(xs=np.arange(4.0), values=np.zeros(3))


class TestProfile2D:
    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            Profile2D(grid=np.array([[0.0, -1.0]]), pitch_x=1.0, pitch_y=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Profile2D(grid=np.array([[np.nan, 1.0]]), pitch_x=1.0, pitch_y=1.0)
