"""The stable sigmoid in its four calling forms, take_rows' bounds and the
workspace's one array."""

import numpy as np
import pytest

from m2dne.util import Workspace, sigmoid, take_rows


def reference(x):
    """exp(min(x, 0)) / (1 + exp(min(x, -x))), evaluated in one expression."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.minimum(x, -x)))


def inputs():
    rng = np.random.default_rng(0)
    extremes = np.array([745.0, -745.0, 1e308, -1e308, 0.0, -0.0])
    return np.concatenate([rng.normal(0, 4, 500), rng.normal(0, 240, 500),
                           extremes]).reshape(2, -1)


class TestSigmoid:
    def test_fresh(self):
        x = inputs()
        assert sigmoid(x).tobytes() == reference(x).tobytes()
        assert np.array_equal(x, inputs())

    def test_out(self):
        x = inputs()
        out = np.full_like(x, np.nan)
        assert sigmoid(x, out=out) is out
        assert out.tobytes() == reference(x).tobytes()
        assert np.array_equal(x, inputs())

    def test_in_place(self):
        x = inputs()
        assert sigmoid(x, out=x) is x
        assert x.tobytes() == reference(inputs()).tobytes()

    def test_in_place_with_scratch(self):
        x = inputs()
        scratch = np.full_like(x, np.nan)
        # a strided view, as the engine passes slices of its buffers
        view = x[:, ::2]
        want = reference(view.copy())
        assert sigmoid(view, out=view, scratch=scratch[:, ::2]) is view
        assert view.tobytes() == want.tobytes()
        assert x[:, 1::2].tobytes() == inputs()[:, 1::2].tobytes()

    @pytest.mark.parametrize("x", [0.0, 3.5, -745.0, 1e308, np.float64(-2.0),
                                   np.array(1.25)])
    def test_scalar_gives_a_float(self, x):
        got = sigmoid(x)
        assert type(got) is float
        assert got == float(reference(np.float64(x)))


@pytest.mark.parametrize("index", [[0, 3], [-4]])
def test_take_rows_rejects_ids_out_of_range(index):
    # np.take's wrap mode would map them silently onto a row
    with pytest.raises(IndexError, match="row id out of range for 3 rows"):
        take_rows(np.arange(6.0).reshape(3, 2), np.array(index),
                  np.empty((len(index), 2)))


class TestWorkspace:
    def test_take_returns_a_prefix_of_the_held_array(self):
        work = Workspace()
        first = work.take(100)
        first[:] = np.arange(100)
        again = work.take(40)
        assert again.shape == (40,) and again.dtype == np.float64
        assert np.shares_memory(first, again)
        assert np.array_equal(again, np.arange(40))
        assert work.nbytes == 100 * 8

    def test_take_grows_when_asked_for_more(self):
        work = Workspace()
        assert work.nbytes == 0
        small = work.take(10)
        large = work.take(30)
        assert large.shape == (30,)
        assert not np.shares_memory(small, large)
        assert work.nbytes == 30 * 8
        assert np.shares_memory(work.take(30), large)
