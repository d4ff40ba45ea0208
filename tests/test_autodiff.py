import contextlib
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
                               TapeError, Tensor, Workspace)


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

    # Multiples of 1/8 up to 30 in magnitude, so v ** 3 is exact and the
    # oracle's power and the kernel's products agree; 0, +-0.75 (near the
    # derivative's zero), +-5 and +-30 (saturated tanh) are on it.
    EXACT_GRID = np.arange(-240, 241) / 8.0

    @staticmethod
    def oracle(v):
        """The tanh-approximation GELU and its analytic derivative."""
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (v + 0.044715 * v ** 3))
        d_inner = c * (1.0 + 3 * 0.044715 * v ** 2)
        return (0.5 * v * (1.0 + t),
                0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * d_inner)

    @staticmethod
    def forward_backward(v):
        x = Tensor(v.copy(), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.gelu(x)
        after_forward = x.values.copy()
        y.grad = np.ones_like(v)
        tape.nodes[-1].backward_fn(y.grad)
        return x, y, after_forward

    def test_forward_matches_formula(self):
        _, y, _ = self.forward_backward(self.EXACT_GRID)
        ref, _ = self.oracle(self.EXACT_GRID)
        assert np.all(np.abs(y.values - ref) <= 1e-12 * np.abs(ref))

    def test_backward_matches_analytic_derivative(self):
        x, _, _ = self.forward_backward(self.EXACT_GRID)
        _, dref = self.oracle(self.EXACT_GRID)
        assert np.all(np.abs(x.grad - dref) <= 1e-12 * np.abs(dref))

    def test_off_grid_within_one_tanh_rounding(self, rng):
        # Off the exact grid v * v * v and v ** 3 may differ in the last bit,
        # which can move tanh by an ulp; where 1 + tanh cancels (v << 0) that
        # ulp is most of the result, so allow it on top of 1e-12 relative.
        v = rng.uniform(-30.0, 30.0, size=20000)
        x, y, _ = self.forward_backward(v)
        ref, dref = self.oracle(v)
        ulp_t = 2 * np.finfo(np.float64).eps
        d_inner = math.sqrt(2.0 / math.pi) * (1.0 + 3 * 0.044715 * v * v)
        assert np.all(np.abs(y.values - ref)
                      <= 1e-12 * np.abs(ref) + 0.5 * np.abs(v) * ulp_t)
        assert np.all(np.abs(x.grad - dref)
                      <= 1e-12 * np.abs(dref)
                      + (0.5 + np.abs(v) * d_inner) * ulp_t)

    def test_input_never_written(self, rng):
        v = rng.uniform(-30.0, 30.0, size=(4, 8, 3))
        x, y, after_forward = self.forward_backward(v)
        assert after_forward.tobytes() == v.tobytes()
        assert x.values.tobytes() == v.tobytes()
        assert not np.shares_memory(y.values, x.values)

    def test_node_keeps_only_the_derivative(self):
        # One batch-sized array per gelu node for the life of the tape, and
        # a backward that takes no scratch of its own.
        v = self.EXACT_GRID.reshape(13, 37)
        x = Tensor(v.copy(), requires_grad=True)
        ws = Workspace()
        with ws, Tape() as tape:
            ad.gelu(x)
        (node,) = tape.nodes
        arrays = [c.cell_contents for c in node.backward_fn.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert len(arrays) == 1 and arrays[0].shape == v.shape
        _, dref = self.oracle(v)
        assert np.all(np.abs(arrays[0] - dref) <= 1e-12 * np.abs(dref))
        lent = len(ws._lent)
        with ws:
            node.backward_fn(np.ones_like(v))
        assert len(ws._lent) == lent
        assert x.grad is arrays[0]


def reference_gelu(v, g):
    """GELU of ``v`` and ``g`` times its derivative, as one pass over whole
    arrays with each product and sum rounded in the kernel's order."""
    c = math.sqrt(2.0 / math.pi)
    t = np.multiply(v, v, out=np.empty(v.shape))
    t *= v
    t *= 0.044715
    t += v
    t *= c
    np.tanh(t, out=t)
    out = np.add(t, 1.0, out=np.empty(v.shape))
    out *= v
    out *= 0.5
    d = np.multiply(v, v, out=np.empty(v.shape))
    d *= 3 * 0.044715
    d += 1.0
    d *= c
    s = np.multiply(t, t, out=np.empty(v.shape))
    np.subtract(1.0, s, out=s)
    s *= v
    s *= 0.5
    s *= d
    np.add(t, 1.0, out=d)
    d *= 0.5
    d += s
    d *= g
    return out, d


class TestGeluBlocks:
    """``gelu`` with ``_GELU_BLOCK`` set to 7, so that inputs of 8 and 23
    elements cross block boundaries, byte for byte against
    ``reference_gelu``."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_GELU_BLOCK", 7)

    SHAPES = [(), (0,), (1,), (2, 3), (7,), (2, 4), (23,), (23, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("taped", [False, True])
    def test_bytes_equal_whole_array_reference(self, shape, taped):
        rng = np.random.default_rng(len(shape) + math.prod(shape))
        v = rng.uniform(-6.0, 6.0, size=shape)
        g = rng.normal(size=shape)
        ref, dref = reference_gelu(v, g)
        x = Tensor(v.copy(), requires_grad=True)
        ws = Workspace()
        with ws, (Tape() if taped else contextlib.nullcontext()) as tape:
            y = ad.gelu(x)
        assert y.values.shape == shape
        assert y.values.tobytes() == ref.tobytes()
        assert x.values.tobytes() == v.tobytes()
        held = [b for _, b in ws._lent] + [b for free in ws._free.values()
                                           for b in free]
        whole = [b for b in held
                 if b.dtype == np.float64 and b.shape == shape]
        one_pass = v.size <= ad._GELU_BLOCK
        # the output and, in one pass, its scratch; under a tape, the
        # derivative and, in one pass, its scratch too
        assert len(whole) == (1 + one_pass) * (1 + taped)
        assert any(b is y.values for b in whole)
        if not taped:
            assert tape is None
            return
        (node,) = tape.nodes
        node.backward_fn(g)
        assert x.grad.tobytes() == dref.tobytes()

    def test_strided_input_bytes_equal_reference(self):
        v = np.random.default_rng(5).uniform(-6.0, 6.0, size=(4, 5)).T
        g = np.ones(v.shape)
        ref, dref = reference_gelu(v, g)
        x = Tensor(v, requires_grad=True)
        with Tape() as tape:
            y = ad.gelu(x)
        tape.nodes[-1].backward_fn(g)
        assert y.values.tobytes() == ref.tobytes()
        assert x.grad.tobytes() == dref.tobytes()


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

    def test_gradient_shared_by_add_is_not_aliased(self):
        # add hands one g to both inputs: a grad that kept g itself would be
        # written by the next accumulate into either of them.
        a = Tensor([1.0, -2.0, 3.0, 0.5], requires_grad=True)
        b = Tensor([0.0, 4.0, -1.0, 2.0], requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.mean(ad.add(ad.add(a, b), a))
        ad.backward(loss, tape)
        assert a.grad.tolist() == [2 / 4] * 4
        assert b.grad.tolist() == [1 / 4] * 4

    def test_same_tensor_twice_in_add(self):
        a = Tensor([1.0, -2.0, 3.0, 0.5], requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.mean(ad.add(a, a))
        ad.backward(loss, tape)
        assert a.grad.tolist() == [2 / 4] * 4

    @pytest.mark.parametrize("pool", [contextlib.nullcontext, Workspace])
    def test_add_hands_its_gradient_to_one_input(self, pool):
        # a takes the add's g itself and b a copy; the multiply recorded
        # before the add then accumulates into a, which must leave b alone
        a = Tensor([1.0, -2.0, 3.0, 0.5], requires_grad=True)
        b = Tensor([0.0, 4.0, -1.0, 2.0], requires_grad=True)
        k = Tensor([2.0, 3.0, 5.0, 7.0])
        with pool(), Tape() as tape:
            q = ad.multiply(a, k)
            loss = ad.mean(ad.add(ad.add(a, b), q))
        ad.backward(loss, tape)
        assert b.grad.tolist() == [1 / 4] * 4
        assert a.grad.tolist() == [0.75, 1.0, 1.5, 2.0]    # (1 + k) / 4

    @pytest.mark.parametrize("pool", [contextlib.nullcontext, Workspace])
    def test_add_of_a_tensor_with_itself_doubles_its_gradient(self, pool):
        x = Tensor([1.0, -2.0, 3.0, 0.5], requires_grad=True)
        k = Tensor([2.0, 3.0, 5.0, 7.0])
        with pool(), Tape() as tape:
            loss = ad.mean(ad.multiply(ad.add(x, x), k))
        ad.backward(loss, tape)
        assert x.grad.tolist() == [1.0, 1.5, 2.5, 3.5]      # 2 * k / 4

    @pytest.mark.parametrize("op", ["reshape", "concat", "subtract", "add",
                                    "cascade"])
    @pytest.mark.parametrize("pool", [contextlib.nullcontext, Workspace])
    def test_copied_gradients_leave_kept_outputs_alone(self, rng, op, pool):
        # x is used before the op too, so its gradient grows after the op's
        # backward has run: had the op handed x its output gradient, or a
        # view of it, instead of a copy, that += would write into a kept
        # output's grad
        args = cascade_args(rng, [4, 2])
        x = args[2][0] if op == "cascade" else leaf(rng, 4, 3)
        other = leaf(rng, 2 if op == "concat" else 4, 3)
        make = {"reshape": lambda: (ad.reshape(x, (3, 4)),),
                "concat": lambda: (ad.concat([x, other]),),
                "subtract": lambda: (ad.subtract(x, other),),
                "add": lambda: (ad.add(other, x),),
                "cascade": lambda: ad.cascade(*args)}[op]
        with pool(), Tape() as tape:
            loss = ad.mean(ad.multiply(x, Tensor(rng.normal(size=x.shape))))
            outputs = make()
            weights = [Tensor(rng.normal(size=o.shape)) for o in outputs]
            for o, w in zip(outputs, weights):
                loss = ad.add(loss, ad.mean(ad.multiply(o, w)))
        ad.backward(loss, tape)
        for o, w in zip(outputs, weights):
            alone = Tensor(o.values, requires_grad=True)
            with Tape() as own:
                own_loss = ad.mean(ad.multiply(alone, w))
            ad.backward(own_loss, own)
            assert np.array_equal(o.grad, alone.grad)

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


    def test_checks_switch_is_scoped_and_on_by_default(self):
        nan = Tensor([math.nan])
        with pytest.raises(NumericError, match="'gelu'"):
            ad.gelu(nan)
        with np.errstate(invalid="ignore"), ad.checks(False):
            assert np.isnan(ad.gelu(nan).values).all()
            with ad.checks(True), pytest.raises(NumericError):
                ad.gelu(nan)
            assert np.isnan(ad.gelu(nan).values).all()
        with pytest.raises(NumericError), ad.checks(False):
            raise NumericError("leaves the block")
        assert ad._checking
        with pytest.raises(NumericError, match="'gelu'"):
            ad.gelu(nan)


class TestWorkspace:
    def test_reset_lends_the_same_buffers_again(self):
        ws = Workspace()
        a, b, c = ws.empty((2, 3)), ws.empty((2, 3)), ws.empty((3, 2))
        assert not np.shares_memory(a, b)
        assert a.dtype == c.dtype == np.float64
        ws.reset()
        again = [ws.empty((2, 3)), ws.empty((2, 3)), ws.empty((3, 2))]
        assert {id(x) for x in again} == {id(a), id(b), id(c)}
        assert not np.shares_memory(ws.empty((2, 3)), a)    # all three lent

    @settings(max_examples=60, deadline=None)
    @given(st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                     max_side=5), max_size=12))
    def test_lent_buffers_are_disjoint_and_lent_again_in_order(self, wants):
        ws = Workspace()
        bufs = [ws.empty(shape) for shape in wants]
        for i, (x, shape) in enumerate(zip(bufs, wants)):
            assert x.shape == shape and x.dtype == np.float64
            assert not any(np.shares_memory(x, y) for y in bufs[:i])
        ws.reset()
        again = [ws.empty(shape) for shape in wants]
        assert all(x is y for x, y in zip(again, bufs))

    # a call on a workspace: ("empty", shape), ("give_back", i) of the i-th
    # buffer lent (mod their count), ("bad", kind, i) or ("reset",)
    CALLS = st.one_of(
        st.tuples(st.just("empty"), st.sampled_from([(), (0,), (2,), (2, 3)])),
        st.tuples(st.just("give_back"), st.integers(0, 20)),
        st.tuples(st.just("bad"), st.sampled_from(["foreign", "view",
                                                   "again"]),
                  st.integers(0, 20)),
        st.just(("reset",)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(CALLS, max_size=40))
    def test_given_back_buffers_are_lent_again_before_reset(self, calls):
        """Lent buffers never overlap; a buffer given back is the next one
        lent of its shape; after ``reset`` the same calls get the same
        buffers; giving back what is not lent raises ``ValueError``."""
        ws = Workspace()

        def run(segment):
            """Make ``segment``'s calls; the buffers its ``empty`` calls got."""
            got, lent, back = [], [], {}    # back: given back, by shape
            for call in segment:
                if call[0] == "empty":
                    buf = ws.empty(call[1])
                    assert buf.shape == call[1] and buf.dtype == np.float64
                    if back.get(call[1]):
                        assert buf is back[call[1]].pop()
                    assert not any(np.shares_memory(buf, b) for b in lent)
                    got.append(buf)
                    lent.append(buf)
                elif call[0] == "give_back" and lent:
                    buf = lent.pop(call[1] % len(lent))
                    ws.give_back(buf)
                    back.setdefault(buf.shape, []).append(buf)
                elif call[0] == "bad":
                    _, kind, i = call
                    gone = [b for bufs in back.values() for b in bufs]
                    bad = {"foreign": np.empty((2,)),
                           "view": lent[i % len(lent)][...] if lent else None,
                           "again": gone[i % len(gone)] if gone else None}
                    if bad[kind] is not None:
                        with pytest.raises(ValueError):
                            ws.give_back(bad[kind])
                assert {id(b) for _, b in ws._lent} == set(map(id, lent))
            return got

        segments = [[]]
        for call in calls:
            if call == ("reset",):
                segments.append([])
            else:
                segments[-1].append(call)
        first = []
        for segment in segments:
            ws.reset()
            first.append(run(segment))
        for segment, got in zip(segments, first):
            ws.reset()
            assert all(a is b for a, b in zip(run(segment), got))

    def test_fresh_arrays_are_not_taken_back(self):
        buf = ad._FRESH.empty((2, 3))
        assert ad._FRESH.give_back(buf) is None
        assert not np.shares_memory(ad._FRESH.empty((2, 3)), buf)

    def test_innermost_entered_workspace_lends(self, rng):
        outer, inner = Workspace(), Workspace()
        assert ad._workspace() is ad._FRESH
        with outer:
            with inner:
                assert ad._workspace() is inner
                out = ad.gelu(leaf(rng, 3))
            assert ad._workspace() is outer
            with pytest.raises(NumericError), inner, \
                    np.errstate(invalid="ignore"):
                ad.gelu(Tensor([math.nan]))
            assert ad._workspace() is outer
        assert ad._workspace() is ad._FRESH
        assert any(buf is out.values for _, buf in inner._lent)
        assert not outer._lent

    @staticmethod
    def step(pool):
        """A forward and backward through every op that has a backward, on a
        plain tape inside ``pool``."""
        rng = np.random.default_rng(3)
        x, w = leaf(rng, 2, 6, 3), leaf(rng, 3, 3)
        ws = [leaf(rng, 3, 3) for _ in range(2)]
        bs = [leaf(rng, 3) for _ in range(2)]
        a, lengths = leaf(rng, 6, 6), [4, 2]
        with pool, Tape() as tape:
            h = ad.gelu(ad.linear(x, w, bs[0]))
            h = ad.time_linear(ad.segment_linear(h, ws, bs, lengths), a)
            h = ad.reshape(ad.concat([ad.add(h, ad.subtract(h, x)), x]),
                           (4, 18))
            loss = ad.mean(ad.multiply(h, h))
        ad.backward(loss, tape)
        return loss, [x, w, a, *ws, *bs]

    def test_pooled_tape_reuses_its_arrays_after_reset(self):
        ws = Workspace()
        loss, leaves = self.step(ws)
        first, lent = [t.grad for t in leaves], [buf for _, buf in ws._lent]
        ws.reset()
        loss2, leaves2 = self.step(ws)
        for g, t in zip(first, leaves2):
            assert np.shares_memory(g, t.grad)
        again = [buf for _, buf in ws._lent]
        assert list(map(id, again)) == list(map(id, lent))  # none cut anew
        assert float(loss.values) == float(loss2.values)

    def test_plain_tape_never_reuses_memory(self):
        _, leaves = self.step(contextlib.nullcontext())
        _, leaves2 = self.step(contextlib.nullcontext())
        for t, u in zip(leaves, leaves2):
            assert not np.shares_memory(t.grad, u.grad)
            assert t.grad.tobytes() == u.grad.tobytes()

    def test_pooled_gradients_equal_plain_ones(self):
        _, plain = self.step(contextlib.nullcontext())
        _, pooled = self.step(Workspace())
        for t, u in zip(plain, pooled):
            assert t.grad.tobytes() == u.grad.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("op, call", [
        ("add", lambda v: ad.add(Tensor(v), Tensor(np.ones(3)))),
        ("linear", lambda v: ad.linear(Tensor(v), Tensor(np.eye(3)))),
        ("gelu", lambda v: ad.gelu(Tensor(v))),
        ("time_linear", lambda v: ad.time_linear(Tensor(v[:, None]),
                                                 Tensor(np.eye(3)))),
        ("cascade", lambda v: ad.cascade(
            np.eye(3), [Tensor(v[:2, None])], [Tensor(v[2:])], np.eye(3),
            [Tensor(v[None, :2])], [Tensor(v[:2])])),
    ])
    def test_nonfinite_under_pooled_tape_names_the_op(self, op, call, bad):
        values = np.array([1.0, bad, 2.0])
        if op == "cascade":
            values = np.array([1.0, 2.0, bad])
        with Workspace(), Tape(), np.errstate(all="ignore"), \
                pytest.raises(NumericError, match=f"'{op}'"):
            call(values)

    def test_second_backward_under_pooled_tape_rejected(self, rng):
        w = leaf(rng, 2)
        with Workspace(), Tape() as tape:
            loss = ad.mean(ad.multiply(w, w))
        ad.backward(loss, tape)
        with pytest.raises(TapeError):
            ad.backward(loss, tape)

    @settings(max_examples=80, deadline=None)
    @given(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4),
           st.integers(1, 5), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_time_map_gradient_matches_tensordot(self, lead, t, d, t_out,
                                                 segment, seed):
        """The learned map's gradient is ``np.tensordot`` over every axis
        but time: bit for bit once there are 2 windows and 2 channels, where
        both copy the same operands; otherwise NumPy may hand BLAS a view."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=lead + (t + segment, d))
        if segment:     # a time segment: not contiguous
            x = x[..., :t, :]
        g = rng.normal(size=lead + (t_out, d))
        other = tuple(i for i in range(x.ndim) if i != x.ndim - 2)
        want = np.tensordot(x, g, axes=(other, other))
        for pool in (contextlib.nullcontext(), Workspace()):
            a = leaf(rng, t, t_out)
            with pool, Tape() as tape:
                ad.time_linear(Tensor(x), a)
            (node,) = tape.nodes
            node.backward_fn(g)
            if math.prod(lead) >= 2 and d >= 2:
                assert a.grad.tobytes() == want.tobytes()
            else:
                scale = np.tensordot(abs(x), abs(g), axes=(other, other))
                assert np.all(abs(a.grad - want) <= 1e-12 * scale)


SEEDS = range(10)


def block_diagonal(rng, lengths):
    """Random constant (ΣT, ΣT) matrix with square blocks on the diagonal."""
    out = np.zeros((sum(lengths), sum(lengths)))
    start = 0
    for t in lengths:
        out[start:start + t, start:start + t] = rng.normal(size=(t, t))
        start += t
    return out


def cascade_args(rng, lengths):
    """Bases and leaf weights and biases for ``cascade`` over ``lengths``."""
    pairs = list(zip(lengths, lengths[1:]))
    return (block_diagonal(rng, lengths),
            [leaf(rng, fine, coarse) for fine, coarse in pairs],
            [leaf(rng, coarse) for _, coarse in pairs],
            block_diagonal(rng, lengths),
            [leaf(rng, coarse, fine) for fine, coarse in pairs],
            [leaf(rng, fine) for fine, _ in pairs])


class TestSegmentLinear:
    def test_matches_linear_per_segment(self, rng):
        x = Tensor(rng.normal(size=(3, 7, 4)))
        ws = [Tensor(rng.normal(size=(4, 2))) for _ in range(3)]
        bs = [Tensor(rng.normal(size=2)) for _ in range(3)]
        got = ad.segment_linear(x, ws, bs, [4, 2, 1]).values
        parts = np.split(x.values, [4, 6], axis=-2)
        for part, w, b, out in zip(parts, ws, bs,
                                   np.split(got, [4, 6], axis=-2)):
            expected = ad.linear(Tensor(part), w, b).values
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_segments_must_cover_time_axis(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 3)))
        w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
        with pytest.raises(ShapeError):
            ad.segment_linear(x, [w, w], [b, b], [3, 1])
        with pytest.raises(ShapeError):
            ad.segment_linear(x, [w], [b, b], [3, 2])
        with pytest.raises(ShapeError):
            ad.segment_linear(x, [w, Tensor(np.zeros((2, 2)))], [b, b],
                              [3, 2])


MALFORMED = {
    "segment_linear": lambda x: ad.segment_linear(x, [], [], []),
    "concat": lambda x: ad.concat([]),
    "time_linear": lambda x: ad.time_linear(x, np.ones(3)),
    "residual_feedforward": lambda x: ad.residual_feedforward(
        x, x, [], [], [], [], []),
}


@pytest.mark.parametrize("op", MALFORMED)
def test_malformed_arguments_raise_shape_error(op):
    with pytest.raises(ShapeError, match=op):
        MALFORMED[op](Tensor(np.zeros((2, 3, 4))))


def feedforward_leaves(rng, lead, lengths, d, h, res_is_x=False):
    """``res``, ``x`` and the per-segment weights and biases of a residual
    feedforward from width ``d`` through ``h`` back to ``d``."""
    x = leaf(rng, *lead, sum(lengths), d)
    res = x if res_is_x else leaf(rng, *lead, sum(lengths), d)
    return (res, x, [leaf(rng, d, h) for _ in lengths],
            [leaf(rng, h) for _ in lengths],
            [leaf(rng, h, d) for _ in lengths],
            [leaf(rng, d) for _ in lengths])


def composed_feedforward(res, x, w1s, b1s, w2s, b2s, lengths):
    """The four ops that ``residual_feedforward`` runs as one."""
    hidden = ad.gelu(ad.segment_linear(x, w1s, b1s, lengths))
    return ad.add(res, ad.segment_linear(hidden, w2s, b2s, lengths))


def feedforward_run(op, leaves, lengths, taped, pool):
    """The output's bytes and, under a tape, every leaf's gradient for the
    loss mean(out * up), ``up`` a fixed random array."""
    res, x, w1s, b1s, w2s, b2s = leaves
    tensors = (res, x, *w1s, *b1s, *w2s, *b2s)
    for t in tensors:
        t.zero_grad()
    with pool, (Tape() if taped else contextlib.nullcontext()) as tape:
        out = op(res, x, w1s, b1s, w2s, b2s, lengths)
        up = Tensor(np.random.default_rng(3).normal(size=out.shape))
        loss = ad.mean(ad.multiply(out, up))
    if not taped:
        return out.values.tobytes(), []
    ad.backward(loss, tape)
    return out.values.tobytes(), [t.grad.tobytes() for t in tensors]


class TestResidualFeedforward:
    CASES = {  # lead axes, segment lengths, d, h, res is x
        "batch 1": ((1,), [64, 32, 16, 8], 32, 64, False),
        "default": ((32,), [64, 32, 16, 8], 32, 64, False),
        "one segment": ((4,), [64], 32, 64, False),
        "res is x": ((3,), [8, 4, 2], 5, 7, True),
        "no lead axes": ((), [5, 2], 3, 4, False),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("pool", [contextlib.nullcontext, Workspace])
    def test_bytes_equal_the_four_ops(self, rng, case, taped, pool):
        lead, lengths, d, h, res_is_x = self.CASES[case]
        leaves = feedforward_leaves(rng, lead, lengths, d, h, res_is_x)
        want = feedforward_run(composed_feedforward, leaves, lengths, taped,
                               pool())
        got = feedforward_run(ad.residual_feedforward, leaves, lengths, taped,
                              pool())
        assert got == want

    @pytest.mark.parametrize("shape", [((1,), [1], 1, 5),
                                       ((2,), [4, 2, 1], 3, 5),
                                       ((3, 2), [2, 3], 2, 4)])
    @pytest.mark.parametrize("taped", [False, True])
    def test_bytes_equal_the_four_ops_in_gelu_blocks(self, rng, monkeypatch,
                                                     shape, taped):
        monkeypatch.setattr(ad, "_GELU_BLOCK", 7)
        lead, lengths, d, h = shape
        leaves = feedforward_leaves(rng, lead, lengths, d, h)
        for pool in (contextlib.nullcontext, Workspace):
            assert (feedforward_run(ad.residual_feedforward, leaves, lengths,
                                    taped, pool())
                    == feedforward_run(composed_feedforward, leaves, lengths,
                                       taped, pool()))

    @pytest.mark.parametrize("res_is_x", [False, True])
    def test_finite_difference(self, rng, res_is_x):
        leaves = feedforward_leaves(rng, (2,), [3, 2], 3, 4, res_is_x)
        res, x, w1s, b1s, w2s, b2s = leaves

        def loss():
            out = ad.residual_feedforward(res, x, w1s, b1s, w2s, b2s, [3, 2])
            return ad.mean(ad.multiply(out, out))

        tensors = [x, *w1s, *b1s, *w2s, *b2s] + ([] if res_is_x else [res])
        finite_diff_check(loss, tensors)

    def test_node_keeps_input_hidden_layer_and_derivative(self, rng,
                                                          monkeypatch):
        # blocks of 7, so that no GELU scratch has the hidden layer's shape
        monkeypatch.setattr(ad, "_GELU_BLOCK", 7)
        lengths = [4, 2]
        res, x, w1s, b1s, w2s, b2s = feedforward_leaves(rng, (3,), lengths,
                                                        2, 5)
        pre = ad.segment_linear(x, w1s, b1s, lengths).values
        hidden = ad.gelu(Tensor(pre)).values
        ws = Workspace()
        with ws, Tape() as tape:
            out = ad.residual_feedforward(res, x, w1s, b1s, w2s, b2s, lengths)
        (node,) = tape.nodes
        kept = [c.cell_contents for c in node.backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(kept) == 3
        assert any(a is x.values for a in kept)
        assert any(a.tobytes() == hidden.tobytes() for a in kept)
        assert not any(a.tobytes() == pre.tobytes() for a in kept)
        # lent: the output, the hidden layer and its derivative
        lent = [b for _, b in ws._lent]
        assert len(lent) == 3 and lent[-1] is out.values
        g = rng.normal(size=out.shape)
        with ws:
            node.backward_fn(g)
        # the hidden layer's gradient took the pre-activation's buffer, and
        # gave it back; res took g itself
        wide = ws._free.get(pre.shape, [])
        assert len(wide) == 1
        assert not any(b is wide[0] for _, b in ws._lent)
        assert res.grad is g

    def test_forward_only_leaves_only_the_output_lent(self, rng):
        res, x, w1s, b1s, w2s, b2s = feedforward_leaves(rng, (4,), [8, 4],
                                                        3, 6)
        ws = Workspace()
        for taped in (False, True):
            ws.reset()
            # under a tape, inputs that need no gradient record nothing
            with ws, (Tape() if taped else contextlib.nullcontext()) as tape:
                out = ad.residual_feedforward(
                    *(Tensor(t.values) for t in (res, x)),
                    *([Tensor(t.values) for t in group]
                      for group in (w1s, b1s, w2s, b2s)), [8, 4])
            assert [b for _, b in ws._lent] == [out.values]
            assert tape is None or len(tape) == 0

    # (leaf, value): one input set so large that a stage's output is not
    # finite, and the op that the four-op composition names for it
    NON_FINITE = {
        "nan input": ("x", math.nan, "segment_linear"),
        "huge first bias": ("b1s", 1e308, "gelu"),
        "huge second weight": ("w2s", 1e308, "segment_linear"),
        "huge residual": ("res", 1e308, "add"),
    }

    @pytest.mark.parametrize("case", NON_FINITE)
    @pytest.mark.parametrize("taped", [False, True])
    def test_non_finite_stage_is_named_as_the_four_ops_name_it(self, rng,
                                                                case, taped):
        name, value, op = self.NON_FINITE[case]
        lengths = [3, 2]
        leaves = dict(zip(("res", "x", "w1s", "b1s", "w2s", "b2s"),
                          feedforward_leaves(rng, (2,), lengths, 3, 4)))
        group = leaves[name]
        for t in group if isinstance(group, list) else [group]:
            t.values[...] = value
        if name == "res":  # the output is about 1e308 too
            for t in leaves["b2s"]:
                t.values[...] = value
        messages = []
        for fn in (composed_feedforward, ad.residual_feedforward):
            with np.errstate(all="ignore"), \
                    (Tape() if taped else contextlib.nullcontext()), \
                    pytest.raises(NumericError) as raised:
                fn(*leaves.values(), lengths)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == \
            f"non-finite values produced by '{op}'"

    def test_residual_must_match_the_output(self, rng):
        res, x, w1s, b1s, w2s, b2s = feedforward_leaves(rng, (2,), [3, 2],
                                                        3, 4)
        with pytest.raises(ShapeError, match="residual"):
            ad.residual_feedforward(Tensor(np.zeros((2, 5, 4))), x, w1s, b1s,
                                    w2s, b2s, [3, 2])
        with pytest.raises(ShapeError):
            ad.residual_feedforward(res, x, w1s, b1s, w2s[:1], b2s, [3, 2])


def strided_bias_outputs(x, weights, biases, lengths, a, a_bias):
    """``segment_linear``, ``linear`` (first segment's weight and bias) and
    ``time_linear`` outputs, each bias added per segment as a narrow strided
    row: the expressions the ops used before they added a (T, width) block."""
    seg_out = np.empty(x.shape[:-1] + biases[0].shape)
    for w, b, (lo, hi) in zip(weights, biases, ad._bounds(lengths)):
        part = seg_out[..., lo:hi, :]
        np.matmul(x[..., lo:hi, :], w, out=part)
        part += b
    lin_out = np.matmul(x, weights[0])
    lin_out += biases[0]
    time_out = np.matmul(a.T, x)
    time_out += a_bias[:, None]
    return seg_out, lin_out, time_out


def bias_ops(x, weights, biases, lengths, a, a_bias, pool):
    """The three ops of ``strided_bias_outputs`` on leaves, and the leaves'
    gradients for the loss mean(out * up) of each output, ``up`` one fixed
    random array per op. Recorded on a plain tape inside ``pool``. Leaves
    are numbered x, weights, biases, a, a_bias."""
    rng = np.random.default_rng(11)
    leaves = [Tensor(v, requires_grad=True)
              for v in (x, *weights, *biases, a, a_bias)]
    xt, a_t, ab_t = leaves[0], leaves[-2], leaves[-1]
    wt, bt = leaves[1:1 + len(weights)], leaves[1 + len(weights):-2]
    outs, ups, grads = [], [], []
    for op in (lambda: ad.segment_linear(xt, wt, bt, lengths),
               lambda: ad.linear(xt, wt[0], bt[0]),
               lambda: ad.time_linear(xt, a_t, ab_t)):
        for t in leaves:
            t.zero_grad()
        with pool, Tape() as tape:
            out = op()
            up = rng.normal(size=out.shape)
            loss = ad.mean(ad.multiply(out, Tensor(up)))
        ad.backward(loss, tape)
        outs.append(out.values.copy())
        ups.append(up * (1.0 / up.size))
        grads.append({i: t.grad.copy() for i, t in enumerate(leaves)
                      if t.grad is not None})
    return outs, ups, grads


class TestBiasBlocks:
    """``linear``, ``time_linear`` and ``segment_linear`` add their biases as
    one (T, width) block and sum bias gradients over one such block."""

    def test_outputs_byte_equal_to_strided_bias_add_at_sweep_shapes(self, rng):
        lengths, d, h = [32, 16, 8], 4, 8       # the sweep model's ladder
        x = rng.normal(size=(128, sum(lengths), d))
        weights = [rng.normal(size=(d, h)) for _ in lengths]
        biases = [rng.normal(size=h) for _ in lengths]
        a, a_bias = rng.normal(size=(56, 56)), rng.normal(size=56)
        for pool in (contextlib.nullcontext(), Workspace()):
            outs, _, _ = bias_ops(x, weights, biases, lengths, a, a_bias,
                                     pool)
            want = strided_bias_outputs(x, weights, biases, lengths, a,
                                        a_bias)
            for got, ref in zip(outs, want):
                assert got.tobytes() == ref.tobytes()

    @PROPERTY
    @given(lead=st.lists(st.integers(1, 3), max_size=2),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           n_in=st.integers(1, 8), n_out=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gradients_match_tensordot_and_sum(self, lead, lengths, n_in,
                                               n_out, seed):
        rng = np.random.default_rng(seed)
        total, lead = sum(lengths), tuple(lead)
        x = rng.normal(size=lead + (total, n_in))
        weights = [rng.normal(size=(n_in, n_out)) for _ in lengths]
        biases = [rng.normal(size=n_out) for _ in lengths]
        a, a_bias = rng.normal(size=(total, n_out)), rng.normal(size=n_out)
        outs, ups, grads = bias_ops(
            x, weights, biases, lengths, a, a_bias, contextlib.nullcontext())
        for got, ref in zip(outs, strided_bias_outputs(
                x, weights, biases, lengths, a, a_bias)):
            assert got.tobytes() == ref.tobytes()

        keep = tuple(range(x.ndim - 1))     # every axis but the width
        other = keep[:-1] + (x.ndim - 1,)   # every axis but time
        seg_up, lin_up, time_up = ups
        n = len(lengths)                    # leaf numbers: see ``bias_ops``
        want = [{}, {}, {}]
        for m, (lo, hi) in enumerate(ad._bounds(lengths)):
            xs, gs = x[..., lo:hi, :], seg_up[..., lo:hi, :]
            want[0][1 + m] = np.tensordot(xs, gs, axes=(keep, keep))
            want[0][1 + n + m] = np.sum(gs, axis=keep)
        want[1][1] = np.tensordot(x, lin_up, axes=(keep, keep))
        want[1][1 + n] = np.sum(lin_up, axis=keep)
        want[2][1 + 2 * n] = np.tensordot(x, time_up, axes=(other, other))
        want[2][2 + 2 * n] = np.sum(time_up, axis=other)
        for got, ref in zip(grads, want):
            for key, value in ref.items():
                assert (np.max(np.abs(got[key] - value))
                        <= 1e-12 * np.abs(value).max())

        _, _, pooled = bias_ops(x, weights, biases, lengths, a, a_bias,
                                   Workspace())
        for plain, pool in zip(grads, pooled):
            assert plain.keys() == pool.keys()
            for key in plain:
                assert plain[key].tobytes() == pool[key].tobytes()


class TestCascade:
    @staticmethod
    def chains(x, up_base, up_w, up_b, down_base, down_w, down_b, lengths):
        """The recurrence of ``cascade``'s docstring, one segment at a time."""
        ends = np.cumsum(lengths)
        cuts = list(zip(ends - lengths, ends))
        up_maps = [up_base[lo:hi, lo:hi].T for lo, hi in cuts]
        down_maps = [down_base[lo:hi, lo:hi].T for lo, hi in cuts]
        xs = [x[..., lo:hi, :] for lo, hi in cuts]
        up = [up_maps[0] @ xs[0]]
        for m in range(1, len(lengths)):
            up.append(up_maps[m] @ xs[m] + up_w[m - 1].values.T @ up[-1]
                      + up_b[m - 1].values[:, None])
        down = [down_maps[-1] @ xs[-1]]
        for m in range(len(lengths) - 2, -1, -1):
            down.insert(0, down_maps[m] @ xs[m] + down_w[m].values.T
                        @ down[0] + down_b[m].values[:, None])
        return np.concatenate([u + v for u, v in zip(up, down)], axis=-2)

    @pytest.mark.parametrize("lengths", [[5], [4, 2], [8, 4, 2, 1], [3, 6]])
    def test_matches_segment_recurrence(self, rng, lengths):
        args = cascade_args(rng, lengths)
        x = rng.normal(size=(2, sum(lengths), 3))
        a, bias = ad.cascade(*args)
        got = ad.time_linear(Tensor(x), a, bias).values
        expected = self.chains(x, *args, lengths)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_weights_leave_block_diagonal_sum(self, rng):
        up_base, up_w, up_b, down_base, down_w, down_b = cascade_args(
            rng, [4, 2])
        for t in (*up_w, *up_b, *down_w, *down_b):
            t.values = np.zeros_like(t.values)
        a, bias = ad.cascade(up_base, up_w, up_b, down_base, down_w, down_b)
        assert np.array_equal(a.values, up_base + down_base)
        assert np.array_equal(bias.values, np.zeros(6))

    def test_shape_mismatch(self, rng):
        up_base, up_w, up_b, down_base, down_w, down_b = cascade_args(
            rng, [4, 2])
        with pytest.raises(ShapeError):
            ad.cascade(up_base[:5, :5], up_w, up_b, down_base, down_w, down_b)
        with pytest.raises(ShapeError):
            ad.cascade(up_base, up_w, up_b, down_base, up_w, down_b)
        with pytest.raises(ShapeError):
            ad.cascade(up_base, up_w, [], down_base, down_w, down_b)

    def test_one_node_for_both_outputs(self, rng):
        args = cascade_args(rng, [4, 2, 1])
        tape = Tape()
        with tape:
            ad.cascade(*args)
        assert len(tape) == 1


class TestConcat:
    def test_stacks_first_axis(self, rng):
        parts = [Tensor(rng.normal(size=(n, 3))) for n in (4, 2, 1)]
        got = ad.concat(parts).values
        assert np.array_equal(got, np.vstack([p.values for p in parts]))

    def test_trailing_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))])


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
    e = leaf(rng, 2, 6, 2)
    w2 = leaf(rng, 4, 3)
    bias2 = leaf(rng, 3)
    # three segments, so a gradient passes through two steps of each chain
    up_base, up_w, up_b, down_base, down_w, down_b = cascade_args(
        rng, [3, 2, 1])
    mixing = (up_base, up_w, up_b, down_base, down_w, down_b)

    def square_mean(t):
        return ad.mean(ad.multiply(t, t))

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
        "segment_linear": lambda: square_mean(
            ad.segment_linear(c, [w, w2], [bias, bias2], [3, 2])),
        "cascade": lambda: square_mean(
            ad.time_linear(e, *ad.cascade(*mixing))),
        "cascade_map_only": lambda: square_mean(
            ad.time_linear(e, ad.cascade(*mixing)[0])),
        "concat": lambda: square_mean(ad.concat([tw, w, tw])),
    }
    tensors = [a, b, w, bias, c, tw, tb, e, w2, bias2, *up_w, *up_b, *down_w,
               *down_b]
    for name, build in cases.items():
        for t in tensors:
            t.zero_grad()
        finite_diff_check(build, tensors)
