import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import finite_diff_check, leaf
from test_model import ref_moving_average
from volmixer import autodiff as ad
from volmixer.autodiff import (NumericError, ParameterError, ShapeError, Tape,
                               TapeError, Tensor)


class TestLinear:
    def test_identity_map(self):
        out = ad.linear(Tensor([1.0, 0.0]), Tensor(np.eye(2)),
                        Tensor([0.0, 0.0]))
        assert out.values.tolist() == [1.0, 0.0]

    def test_direct_evaluation(self):
        out = ad.linear(Tensor([1.0, 2.0]), Tensor([[1.0], [1.0]]),
                        Tensor([3.0]))
        assert out.values.tolist() == [6.0]

    def test_against_triple_loop(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b)).values
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += x[i, k] * w[k, j]
                expected[i, j] += b[j]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)),
                      Tensor([0.0, 0.0]))

    def test_exact_linearity(self, rng):
        # f(ax + by) == a f(x) + b f(y) - (a + b - 1) bias
        w = Tensor(rng.normal(size=(5, 3)))
        bias = Tensor(rng.normal(size=3))
        x, y = rng.normal(size=5), rng.normal(size=5)
        a, b = 2.3, -0.7
        lhs = ad.linear(Tensor(a * x + b * y), w, bias).values
        rhs = (a * ad.linear(Tensor(x), w, bias).values
               + b * ad.linear(Tensor(y), w, bias).values
               - (a + b - 1) * bias.values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestGelu:
    def test_zero_fixed_point(self):
        assert ad.gelu(Tensor([0.0])).values[0] == 0.0

    def test_saturates_to_identity(self):
        assert abs(ad.gelu(Tensor([10.0])).values[0] - 10.0) < 1e-6

    def test_against_erf_oracle(self):
        grid = np.linspace(-5, 5, 101)
        got = ad.gelu(Tensor(grid)).values
        exact = np.array([0.5 * x * (1 + math.erf(x / math.sqrt(2)))
                          for x in grid])
        assert np.max(np.abs(got - exact)) < 1e-3

    def test_monotone_right_of_minimum(self):
        # x * Phi(x) dips to its minimum near -0.75 and is nondecreasing after
        grid = np.linspace(-0.7, 5, 101)
        got = ad.gelu(Tensor(grid)).values
        assert np.all(np.diff(got) >= -1e-12)


class TestTimeLinear:
    def test_matches_transposed_linear(self, rng):
        x = Tensor(rng.normal(size=(3, 6, 2)))
        w, b = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=4))
        got = ad.time_linear(x, w, b).values
        via_linear = ad.transpose_last2(
            ad.linear(ad.transpose_last2(x), w, b)).values
        assert got.shape == (3, 4, 2)
        assert np.max(np.abs(got - via_linear)) < 1e-12

    def test_constant_matrix_and_divisor(self):
        x = Tensor([[2.0], [4.0], [8.0]])
        out = ad.time_linear(x, np.array([[1.0], [1.0], [1.0]]), denom=2.0)
        assert out.values.tolist() == [[7.0]]

    def test_constant_matrix_records_only_x(self, rng):
        x = leaf(rng, 4, 2)
        tape = Tape()
        with tape:
            out = ad.time_linear(x, np.eye(4))
        assert len(tape) == 1 and tape.nodes[0].inputs == (x,)
        assert np.array_equal(out.values, x.values)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ad.time_linear(Tensor(np.zeros((5, 2))), Tensor(np.zeros((4, 3))))
        with pytest.raises(ShapeError):
            ad.time_linear(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 3))),
                           Tensor(np.zeros(2)))


# property tests: derandomized so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None)


def time_series(min_len):
    """2-D (T, C) or 3-D (B, T, C) float arrays with T >= ``min_len``."""
    shapes = st.tuples(st.sampled_from([(), (1,), (3,)]),
                       st.integers(min_len, 80), st.integers(1, 3)
                       ).map(lambda s: s[0] + s[1:])
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-10, 10)))


class TestAvgPoolHalve:
    @PROPERTY
    @given(time_series(min_len=2))
    def test_bit_equal_to_pairwise_sum(self, x):
        k = x.shape[-2] // 2
        expected = 0.5 * (x[..., 0:2 * k:2, :] + x[..., 1:2 * k:2, :])
        assert np.array_equal(ad.avg_pool_halve(Tensor(x)).values, expected)

    def test_pairwise_means(self):
        out = ad.avg_pool_halve(Tensor([[1.0], [2.0], [3.0], [4.0]]))
        assert out.values.ravel().tolist() == [1.5, 3.5]

    def test_constant_series(self):
        out = ad.avg_pool_halve(Tensor(np.full((4, 1), 5.0)))
        assert out.values.ravel().tolist() == [5.0, 5.0]

    def test_odd_tail_dropped(self):
        out = ad.avg_pool_halve(Tensor([[1.0], [2.0], [3.0]]))
        assert out.values.ravel().tolist() == [1.5]

    def test_too_short(self):
        with pytest.raises(ShapeError):
            ad.avg_pool_halve(Tensor([[1.0]]))

    def test_preserves_mean_of_even_constant_input(self, rng):
        x = np.full((10, 3), 2.5) + rng.normal(size=(1, 3))  # constant per channel
        out = ad.avg_pool_halve(Tensor(x)).values
        assert np.allclose(out.mean(axis=0), x.mean(axis=0), atol=0)


class TestMovingAverage:
    @PROPERTY
    @given(time_series(min_len=1), st.integers(0, 15))
    def test_matches_loop_reference(self, x, half):
        kernel = 2 * half + 1
        got = ad.moving_average(Tensor(x), kernel).values
        series = x.reshape(-1, *x.shape[-2:])
        expected = np.stack([ref_moving_average(s, kernel) for s in series])
        assert np.max(np.abs(got - expected.reshape(x.shape))) < 1e-12

    def test_constant_series(self):
        x = np.full((7, 2), 3.0)
        for kernel in (1, 3, 5):
            out = ad.moving_average(Tensor(x), kernel).values
            assert np.array_equal(out, x)

    def test_kernel_one_identity(self, rng):
        x = rng.normal(size=(6, 2))
        assert np.array_equal(ad.moving_average(Tensor(x), 1).values, x)

    def test_hand_computed_edges(self):
        # replicated-edge windows (1,1,2), (1,2,3), ..., (4,5,5)
        x = Tensor(np.arange(1.0, 6.0)[:, None])
        out = ad.moving_average(x, 3).values.ravel()
        expected = [4 / 3, 2.0, 3.0, 4.0, 14 / 3]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            ad.moving_average(Tensor(np.zeros((5, 1))), 4)
        with pytest.raises(ParameterError):
            ad.moving_average(Tensor(np.zeros((5, 1))), -3)

    @pytest.mark.parametrize("t_len,kernel", [(3, 3), (8, 5), (20, 7), (4, 9)])
    def test_length_preserved(self, rng, t_len, kernel):
        out = ad.moving_average(Tensor(rng.normal(size=(t_len, 2))), kernel)
        assert out.shape == (t_len, 2)


class TestBackward:
    def test_mean_gives_uniform_share(self, rng):
        w = leaf(rng, 3, 2)
        tape = Tape()
        with tape:
            loss = ad.mean(w)
        ad.backward(loss, tape)
        assert np.array_equal(w.grad, np.full((3, 2), 1 / 6))

    def test_quadratic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.mean(ad.multiply(w, w))
        ad.backward(loss, tape)
        assert w.grad.tolist() == [1.0, 2.0]

    def test_non_scalar_loss_rejected(self, rng):
        w = leaf(rng, 3)
        tape = Tape()
        with tape:
            out = ad.multiply(w, w)
        with pytest.raises(TapeError):
            ad.backward(out, tape)

    def test_tape_is_single_use(self, rng):
        w = leaf(rng, 2)
        tape = Tape()
        with tape:
            loss = ad.mean(w)
        ad.backward(loss, tape)
        with pytest.raises(TapeError):
            ad.backward(loss, tape)

    def test_nothing_recorded_outside_tape(self, rng):
        w = leaf(rng, 2)
        out = ad.mean(ad.multiply(w, w))
        assert out.requires_grad  # flag propagates, but no tape nodes exist
        tape = Tape()
        assert len(tape) == 0


class TestNumericGuards:
    def test_overflow_is_caught(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.multiply(big, big)


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_finite_difference_all_primitives(seed):
    """Every recorded primitive passes a central finite-difference check."""
    rng = np.random.default_rng(seed)
    a = leaf(rng, 5, 4)
    b = leaf(rng, 5, 4)
    w = leaf(rng, 4, 3)
    bias = leaf(rng, 3)
    c = leaf(rng, 2, 5, 4)
    tw = leaf(rng, 5, 3)
    tb = leaf(rng, 3)

    cases = {
        "add": lambda: ad.mean(ad.multiply(ad.add(a, b), ad.add(a, b))),
        "subtract": lambda: ad.mean(ad.multiply(ad.subtract(a, b),
                                                ad.subtract(a, b))),
        "multiply": lambda: ad.mean(ad.multiply(a, b)),
        "mean": lambda: ad.mean(ad.multiply(a, a)),
        "linear": lambda: ad.mean(ad.linear(a, w, bias)),
        "gelu": lambda: ad.mean(ad.gelu(a)),
        "avg_pool": lambda: ad.mean(ad.multiply(ad.avg_pool_halve(a),
                                                ad.avg_pool_halve(b))),
        "moving_average": lambda: ad.mean(
            ad.multiply(ad.moving_average(a, 3), ad.moving_average(b, 3))),
        "time_linear": lambda: ad.mean(ad.multiply(ad.time_linear(c, tw, tb),
                                                   ad.time_linear(c, tw, tb))),
        "transpose": lambda: ad.mean(ad.multiply(ad.transpose_last2(a),
                                                 ad.transpose_last2(b))),
        "reshape": lambda: ad.mean(ad.multiply(ad.reshape(a, (4, 5)),
                                               ad.reshape(b, (4, 5)))),
    }
    for name, build in cases.items():
        for t in (a, b, w, bias, c, tw, tb):
            t.zero_grad()
        finite_diff_check(build, [a, b, w, bias, c, tw, tb])
