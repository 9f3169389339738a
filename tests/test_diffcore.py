import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from routegrad import diffcore as dc

from oracles import central_difference, softmax_temperature_reference


def taped_gradient(fn, *arrays):
    tensors = [dc.Tensor(a, requires_grad=True) for a in arrays]
    with dc.Tape() as tape:
        out = fn(*tensors)
    return tape.gradient(out, tensors)


def fd_gradient(fn, arrays, which, h=1e-5):
    """Central differences w.r.t. arrays[which], other inputs fixed."""

    def scalar(x):
        args = [a.copy() for a in arrays]
        args[which] = x
        return float(fn(*[dc.Tensor(a) for a in args]).data)

    return central_difference(scalar, arrays[which], h)


def assert_grads_match(fn, arrays, tol=1e-4):
    analytic = taped_gradient(fn, *arrays)
    for i in range(len(arrays)):
        fd = fd_gradient(fn, arrays, i)
        rel = np.max(np.abs(analytic[i] - fd) / (np.abs(analytic[i]) + 1e-12))
        assert rel < tol, f"input {i}: rel err {rel}"


class TestAffine:
    def test_identity(self):
        W = np.eye(3)
        b = np.zeros(3)
        x = np.array([1.0, -2.0, 3.0])
        y = dc.affine(dc.Tensor(x), dc.Tensor(W), dc.Tensor(b))
        assert np.array_equal(y.data, x)

    def test_scalar_case(self):
        y = dc.affine(dc.Tensor([3.0]), dc.Tensor([[2.0]]), dc.Tensor([1.0]))
        assert y.data.tolist() == [7.0]

    def test_bias_gradient_is_ones(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        bt = dc.Tensor(b, requires_grad=True)
        with dc.Tape() as tape:
            y = dc.tensor_sum(dc.affine(dc.Tensor(x), dc.Tensor(W), bt))
        g = tape.gradient(y, bt)
        assert np.array_equal(g, np.full(2, 4.0))  # one per batch row

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.affine(dc.Tensor(np.zeros(3)), dc.Tensor(np.zeros((2, 4))))

    def test_gradients(self):
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)]
        assert_grads_match(lambda x, W, b: dc.tensor_sum(dc.sigmoid(dc.affine(x, W, b))), arrays)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 5, 3))
        W = rng.normal(size=(4, 3))
        y = dc.affine(dc.Tensor(x), dc.Tensor(W))
        assert y.shape == (2, 5, 4)
        assert np.allclose(y.data, x @ W.T)


class TestAffineSum:
    def test_matches_concat(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(6, 3))
        x2 = rng.normal(size=(6, 2))
        W = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        lhs = dc.affine_sum([dc.Tensor(x1), dc.Tensor(x2)], dc.Tensor(W), dc.Tensor(b))
        rhs = np.concatenate([x1, x2], axis=-1) @ W.T + b
        assert np.allclose(lhs.data, rhs, atol=1e-14)

    def test_broadcast_leading_axis(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=(1, 6, 3))  # shared across the leading batch
        x2 = rng.normal(size=(4, 6, 2))
        W = rng.normal(size=(5, 5))
        y = dc.affine_sum([dc.Tensor(x1), dc.Tensor(x2)], dc.Tensor(W))
        expect = np.concatenate([np.broadcast_to(x1, (4, 6, 3)), x2], axis=-1) @ W.T
        assert np.allclose(y.data, expect, atol=1e-13)

    def test_sums_in_place(self):
        # the products and the bias are summed into an operand that already
        # has the output's shape, so at most one product lives beside it
        rng = np.random.default_rng(20)
        shapes = [(1, 32, 16), (64, 32, 16), (64, 32, 16)]
        xs = [dc.Tensor(rng.normal(size=shape)) for shape in shapes]
        W, b = rng.normal(size=(16, 48)), rng.normal(size=16)
        tracemalloc.start()
        try:
            y = dc.affine_sum(xs, dc.Tensor(W), dc.Tensor(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.data.nbytes, f"peak {peak / y.data.nbytes:.2f} outputs"
        expect = np.concatenate(np.broadcast_arrays(*(x.data for x in xs)), axis=-1) @ W.T + b
        assert np.allclose(y.data, expect, atol=1e-13)

    def test_gradients_including_broadcast(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(1, 4, 2)), rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4)), rng.normal(size=3)]
        assert_grads_match(
            lambda a, b, W, bias: dc.tensor_sum(dc.relu(dc.affine_sum([a, b], W, bias))),
            arrays,
        )


class TestColumns:
    def test_block_view_and_bounds(self):
        w = np.arange(12.0).reshape(3, 4)
        block = dc.columns(dc.Tensor(w), 1, 3)
        assert np.array_equal(block.data, w[:, 1:3]) and np.shares_memory(block.data, w)
        for lo, hi in [(-1, 2), (2, 1), (0, 5)]:
            with pytest.raises(dc.ShapeMismatchError):
                dc.columns(dc.Tensor(w), lo, hi)


class TestConcatRows:
    def test_values_and_part_shapes(self):
        a, b = np.arange(6.0).reshape(3, 2), -np.ones((1, 2))
        assert np.array_equal(dc.concat_rows([a, b]).data, np.concatenate([a, b]))
        bad = [
            [np.zeros((2, 3)), np.zeros((1, 4))],
            [np.zeros((2, 3, 1)), np.zeros((2, 3))],
            [np.zeros(()), np.zeros(())],
            [],
        ]
        for parts in bad:
            with pytest.raises(dc.ShapeMismatchError):
                dc.concat_rows(parts)


class TestLayerNormalize:
    def test_constant_vector_zeroed(self):
        y = dc.layer_normalize(dc.Tensor(np.full(5, 3.7)), dc.Tensor(np.ones(5)), dc.Tensor(np.zeros(5)))
        assert np.allclose(y.data, 0.0)

    def test_plus_minus_one(self):
        y = dc.layer_normalize(dc.Tensor([1.0, -1.0]), dc.Tensor(np.ones(2)), dc.Tensor(np.zeros(2)))
        expect = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(y.data, [expect, -expect], rtol=0, atol=1e-15)

    def test_zero_gain_returns_bias(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        y = dc.layer_normalize(dc.Tensor(x), dc.Tensor(np.zeros(4)), dc.Tensor(bias))
        assert np.allclose(y.data, np.broadcast_to(bias, (3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.layer_normalize(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.ones(4)), dc.Tensor(np.zeros(3)))

    def test_gradients(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=(3, 5)), rng.uniform(0.5, 1.5, 5), rng.normal(size=5)]
        assert_grads_match(
            lambda x, g, b: dc.tensor_sum(dc.sigmoid(dc.layer_normalize(x, g, b))), arrays
        )


class TestSigmoid:
    def test_midpoint(self):
        assert dc.sigmoid(dc.Tensor([0.0])).data.tolist() == [0.5]

    def test_saturation_no_overflow(self):
        y = dc.sigmoid(dc.Tensor([50.0, 700.0, -700.0]))
        assert y.data[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(y.data))

    def test_derivative_at_zero(self):
        (g,) = taped_gradient(lambda x: dc.tensor_sum(dc.sigmoid(x)), np.array([0.0]))
        assert g.tolist() == [0.25]


class TestSoftMaximum:
    def test_equal_elements_identity(self):
        for tau in (1.0, 0.1, 0.01):
            out = dc.soft_maximum(dc.Tensor(np.full(7, 2.5)), tau)
            assert float(out.data) == 2.5

    def test_two_element_value(self):
        out = dc.soft_maximum(dc.Tensor([0.0, 1.0]), 0.1)
        expect = softmax_temperature_reference([0.0, 1.0], 0.1)
        assert float(out.data) == pytest.approx(expect, rel=1e-12)
        assert float(out.data) == pytest.approx(0.9999546, abs=1e-7)

    def test_large_tau_approaches_mean(self):
        out = dc.soft_maximum(dc.Tensor([0.0, 1.0]), 1e6)
        assert float(out.data) == pytest.approx(0.5, abs=1e-6)

    def test_upper_bound_and_monotone_approach(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, int(rng.integers(2, 12)))
            hard = x.max()
            prev = None
            for tau in (1.0, 0.1, 0.01):
                val = float(dc.soft_maximum(dc.Tensor(x), tau).data)
                assert val <= hard + tau * math.log(x.size) + 1e-12
                if prev is not None:
                    assert abs(hard - val) <= abs(hard - prev) + 1e-12
                prev = val

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 2.0, 9)
        base = float(dc.soft_maximum(dc.Tensor(x), 0.1).data)
        for _ in range(5):
            perm = rng.permutation(9)
            assert float(dc.soft_maximum(dc.Tensor(x[perm]), 0.1).data) == pytest.approx(base, rel=1e-13)

    def test_stability_at_large_magnitudes(self):
        out = dc.soft_maximum(dc.Tensor([100.0, 200.0, 150.0]), 0.1)
        assert float(out.data) == pytest.approx(200.0, rel=1e-9)

    def test_errors(self):
        with pytest.raises(dc.EmptyVectorError):
            dc.soft_maximum(dc.Tensor(np.array([])), 0.1)
        with pytest.raises(dc.NonPositiveTemperatureError):
            dc.soft_maximum(dc.Tensor([1.0]), 0.0)


class TestBinaryCrossEntropy:
    def test_perfect_predictions(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        p = np.array([1e-9, 1.0 - 1e-9, 1.0, 0.0])
        loss = dc.binary_cross_entropy(dc.Tensor(p), labels)
        assert float(loss.data) == pytest.approx(0.0, abs=1e-5)

    def test_uniform_prediction_is_ln2(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        loss = dc.binary_cross_entropy(dc.Tensor(np.full(5, 0.5)), labels)
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_monotone_toward_label(self):
        labels = np.array([1.0])
        losses = [
            float(dc.binary_cross_entropy(dc.Tensor([p]), labels).data)
            for p in (0.2, 0.4, 0.6, 0.8, 0.95)
        ]
        assert losses == sorted(losses, reverse=True)

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeMismatchError):
            dc.binary_cross_entropy(dc.Tensor(np.zeros(3)), np.zeros(4))

    def test_gradient(self):
        rng = np.random.default_rng(10)
        p = rng.uniform(0.05, 0.95, 6)
        labels = (rng.random(6) < 0.5).astype(float)
        assert_grads_match(lambda q: dc.binary_cross_entropy(q, labels), [p])


class TestGatherAndSegments:
    def test_index_rows_matches_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 5, 4))
        idx = np.array([4, 0, 0, 2, 3, 1, 4])
        y = dc.index_rows(dc.Tensor(x), idx)
        for j, i in enumerate(idx):
            assert np.array_equal(y.data[:, j, :], x[:, i, :])
        for bad in ([-1, 0], [0, 5]):  # a negative index must not wrap around
            with pytest.raises(dc.ShapeMismatchError):
                dc.index_rows(dc.Tensor(x), bad)

    def test_segment_sum_matches_loop(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 7, 3))
        idx = np.array([1, 1, 0, 4, 4, 4, 0])
        y = dc.segment_sum(dc.Tensor(x), idx, 5)
        expect = np.zeros((2, 5, 3))
        for j, i in enumerate(idx):
            expect[:, i, :] += x[:, j, :]
        assert np.allclose(y.data, expect, atol=1e-15)
        for bad in ([1, 1, 0, 4, 4, 4, -1], [1, 1, 0, 5, 4, 4, 0]):  # -1 must not land in bucket 4
            with pytest.raises(dc.ShapeMismatchError):
                dc.segment_sum(dc.Tensor(x), np.array(bad), 5)

    def test_empty_segment_is_zero(self):
        x = np.ones((4, 2))
        y = dc.segment_sum(dc.Tensor(x), np.array([0, 0, 3, 3]), 5)
        assert np.array_equal(y.data[1], np.zeros(2))
        assert np.array_equal(y.data[2], np.zeros(2))
        assert np.array_equal(y.data[4], np.zeros(2))

    def test_empty_index_gives_zeros(self):
        y = dc.segment_sum(dc.Tensor(np.zeros((0, 3))), [], 2)
        assert np.array_equal(y.data, np.zeros((2, 3)))
        (g,) = taped_gradient(lambda x: dc.tensor_sum(dc.index_rows(x, [])), np.ones((4, 3)))
        assert np.array_equal(g, np.zeros((4, 3)))

    def test_segment_sum_permutation_invariant(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 3))
        idx = np.array([0, 1, 1, 2, 0, 2])
        perm = rng.permutation(6)
        a = dc.segment_sum(dc.Tensor(x), idx, 3)
        b = dc.segment_sum(dc.Tensor(x[perm]), idx[perm], 3)
        assert np.allclose(a.data, b.data, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        idx = np.array([2, 0, 1, 1, 2])
        arrays = [rng.normal(size=(5, 3))]
        assert_grads_match(
            lambda x: dc.tensor_sum(dc.sigmoid(dc.segment_sum(x, idx, 3))), arrays
        )
        arrays = [rng.normal(size=(4, 5))]
        assert_grads_match(
            lambda x: dc.tensor_sum(dc.sigmoid(dc.index_rows(x, idx))), arrays
        )


class TestTapeMechanics:
    def test_square_gradient(self):
        (g,) = taped_gradient(lambda x: dc.mul(x, x), np.array(3.0))
        assert float(g) == 6.0

    def test_accumulation_when_input_used_twice(self):
        # f(x, y) = x*y + x  =>  df/dx = y + 1 (two paths into x)
        x = dc.Tensor(np.array(2.0), requires_grad=True)
        y = dc.Tensor(np.array(5.0), requires_grad=True)
        with dc.Tape() as tape:
            out = dc.add(dc.mul(x, y), x)
        gx, gy = tape.gradient(out, [x, y])
        assert float(gx) == 6.0
        assert float(gy) == 2.0

    def test_not_scalar_output(self):
        x = dc.Tensor(np.zeros(3), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.mul(x, 2.0)
        with pytest.raises(dc.NotScalarOutputError):
            tape.gradient(y, x)

    def test_input_not_on_tape(self):
        x = dc.Tensor(np.zeros(3), requires_grad=True)
        stranger = dc.Tensor(np.zeros(3), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.tensor_sum(dc.mul(x, x))
        with pytest.raises(dc.InputNotOnTapeError):
            tape.gradient(y, stranger)

    def test_untracked_input_not_on_tape(self):
        x = dc.Tensor(np.ones(3))  # requires_grad left False
        with dc.Tape() as tape:
            y = dc.tensor_sum(dc.mul(x, x))
        with pytest.raises(dc.InputNotOnTapeError):
            tape.gradient(y, x)

    def test_unused_tracked_input_gets_zeros(self):
        x = dc.Tensor(np.ones(2), requires_grad=True)
        z = dc.Tensor(np.ones(2), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.tensor_sum(dc.mul(x, x))
            dc.mul(z, 3.0)  # on tape, but not part of y
        assert np.array_equal(tape.gradient(y, z), np.zeros(2))

    def test_no_tape_means_no_recording(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        y = dc.tensor_sum(dc.mul(x, x))
        assert float(y.data) == 3.0

    def test_gradient_of_output_wrt_itself(self):
        x = dc.Tensor(np.array(4.0), requires_grad=True)
        with dc.Tape() as tape:
            y = dc.mul(x, x)
        assert float(tape.gradient(y, y)) == 1.0


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"w": np.zeros(2)}, lr=0.1)
        assert params["w"].tolist() == [1.0, 2.0]

    def test_first_step_magnitude(self):
        # hand computation: m-hat = g, v-hat = g^2 => delta = -lr * sign(g)/(1 + eps')
        params = {"w": np.array([0.0])}
        state = dc.AdamState.for_params(params)
        dc.adam_step(state, params, {"w": np.array([0.5])}, lr=0.001)
        assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)

    def test_step_counter_increments(self):
        params = {"w": np.zeros(1)}
        state = dc.AdamState.for_params(params)
        for i in range(1, 4):
            dc.adam_step(state, params, {"w": np.ones(1)}, lr=0.01)
            assert state.step == i

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        state = dc.AdamState.for_params(params)
        with pytest.raises(dc.ShapeMismatchError):
            dc.adam_step(state, params, {"w": np.zeros(3)}, lr=0.01)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_nearly_exact(self):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(4, 4))
        A = A @ A.T + np.eye(4)

        def f(x):
            return dc.tensor_sum(dc.mul(x, dc.reshape(dc.matmul(dc.reshape(x, (1, 4)), dc.Tensor(A)), (4,))))

        err = dc.finite_difference_check(f, rng.normal(size=4))
        assert err < 1e-9

    def test_soft_maximum(self):
        rng = np.random.default_rng(16)
        err = dc.finite_difference_check(
            lambda x: dc.soft_maximum(x, 0.1), rng.uniform(0.0, 2.0, 8)
        )
        assert err < 1e-4

    def test_entries_below_roundoff_floor_pass(self):
        # gradient entries span 1e-11 .. 1; a per-entry relative error would
        # read ~1 on the smallest one from central-difference roundoff alone
        err = dc.finite_difference_check(
            lambda x: dc.soft_maximum(x, 0.07), np.array([0.0, 1.0, 2.0])
        )
        assert err < 1e-6

    def test_wrong_gradient_fails(self):
        # the detached second factor drops half the gradient: taped x, true 2x
        rng = np.random.default_rng(17)
        err = dc.finite_difference_check(
            lambda t: dc.tensor_sum(dc.mul(t, dc.Tensor(t.data))), rng.normal(size=5)
        )
        assert err >= 0.4

    def test_zero_gradient_reports_zero(self):
        err = dc.finite_difference_check(lambda t: dc.tensor_sum(dc.mul(t, 0.0)), np.ones(3))
        assert err == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_every_primitive_gradient_matches_fd(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(3, 4))
    pos = rng.uniform(0.5, 2.0, (3, 4))
    W = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    gain = rng.uniform(0.5, 1.5, 4)
    idx = rng.integers(0, 3, 5)

    cases = [
        (lambda t: dc.tensor_sum(dc.add(t, dc.mul(t, 2.0))), x),
        (lambda t: dc.tensor_sum(dc.sub(3.0, t)), x),
        (lambda t: dc.tensor_sum(dc.mul(t, t)), x),
        (lambda t: dc.tensor_sum(dc.div(1.0, t)), pos),
        (lambda t: dc.tensor_sum(dc.exp(dc.mul(t, 0.3))), x),
        (lambda t: dc.tensor_sum(dc.log(t)), pos),
        (lambda t: dc.tensor_sum(dc.relu(t)), pos),
        (lambda t: dc.tensor_sum(dc.sigmoid(t)), x),
        (lambda t: dc.tensor_sum(dc.matmul(t, dc.Tensor(W.T))), x),
        (lambda t: dc.mean(dc.affine(t, dc.Tensor(W), dc.Tensor(b))), x),
        (lambda t: dc.tensor_sum(dc.layer_normalize(t, dc.Tensor(gain), dc.Tensor(np.zeros(4)))), x),
        (lambda t: dc.tensor_sum(dc.sigmoid(dc.index_rows(t, idx))), x.T),
        (lambda t: dc.tensor_sum(dc.sigmoid(dc.segment_sum(t, np.array([1, 0, 1]), 2))), x),
        (lambda t: dc.tensor_sum(dc.sigmoid(dc.columns(t, 1, 3))), x),
        # parts of 1, 2 (a constant), 3 and 2 rows; the cosine weights tell
        # every row apart, so a slice handed to the wrong part shows
        (
            lambda t: dc.tensor_sum(
                dc.sigmoid(
                    dc.mul(
                        dc.concat_rows([dc.index_rows(t, [2]), dc.Tensor(W), t, dc.index_rows(t, [0, 1])]),
                        np.cos(np.arange(32.0)).reshape(8, 4),
                    )
                )
            ),
            x,
        ),
        (lambda t: dc.soft_maximum(dc.reshape(t, (12,)), 0.5), pos),
        (lambda t: dc.tensor_sum(dc.clip(t, -0.5, 0.5)), x + 0.01),
    ]
    for i, (fn, point) in enumerate(cases):
        err = dc.finite_difference_check(fn, point)
        assert err < 1e-4, f"case {i}: rel err {err}"


_RNG = np.random.default_rng(18)
_W = _RNG.normal(size=(2, 4))
_W_SUM = _RNG.normal(size=(2, 6))
_OTHER = _RNG.normal(size=(3, 2))
_C = _RNG.normal(size=(3, 4))
_POS = _RNG.uniform(0.5, 2.0, (3, 4))

# ops whose backward reads nothing of their input ``h``: every parameter and
# other operand is a constant, so the op must not keep ``h.data`` alive
UNREAD_INPUT_OPS = [
    ("relu", dc.relu),
    ("sigmoid", dc.sigmoid),
    ("exp", dc.exp),
    ("layer_normalize", lambda h: dc.layer_normalize(h, dc.Tensor(_POS[0]), dc.Tensor(_C[0]))),
    ("affine", lambda h: dc.affine(h, dc.Tensor(_W), dc.Tensor(_W[:, 0]))),
    ("affine_sum", lambda h: dc.affine_sum([h, dc.Tensor(_OTHER)], dc.Tensor(_W_SUM), dc.Tensor(_W[:, 1]))),
    ("index_rows", lambda h: dc.index_rows(h, [2, 0, 0, 1])),
    ("segment_sum", lambda h: dc.segment_sum(h, np.array([1, 0, 1]), 2)),
    # a column block is a view of its input, so it is read here the way the
    # surrogate reads it: as the weights of a dense layer
    ("columns", lambda h: dc.affine(dc.Tensor(_OTHER), dc.columns(h, 1, 3))),
    # h twice, so two row slices of one gradient reach the same input
    ("concat_rows", lambda h: dc.concat_rows([h, dc.Tensor(_C[:1]), dc.index_rows(h, [2, 0]), h])),
    ("clip", lambda h: dc.clip(h, -0.5, 0.5)),
    ("tensor_sum", lambda h: dc.tensor_sum(h, axis=0)),
    ("mean", lambda h: dc.mean(h, axis=-1)),
    ("add", lambda h: dc.add(h, _C)),
    ("sub", lambda h: dc.sub(_C, h)),
    ("neg", dc.neg),
    ("mul", lambda h: dc.mul(h, _C)),
    ("div", lambda h: dc.div(h, _POS)),
    ("matmul", lambda h: dc.matmul(h, dc.Tensor(_W.T))),
]


def _weighted_total(y: dc.Tensor) -> dc.Tensor:
    """A scalar that reads every output entry with a distinct weight."""
    return dc.tensor_sum(dc.mul(y, np.cos(np.arange(y.size) + 1.0).reshape(y.shape)))


@pytest.mark.parametrize("op", [fn for _, fn in UNREAD_INPUT_OPS], ids=[n for n, _ in UNREAD_INPUT_OPS])
def test_backward_does_not_retain_unread_input(op):
    x0 = np.random.default_rng(19).normal(size=(3, 4))
    x = dc.Tensor(x0, requires_grad=True)
    with dc.Tape() as tape:
        h = dc.mul(x, 2.0)
        freed = weakref.ref(h.data)
        y = op(h)
        del h
        gc.collect()
        assert freed() is None, "the tape keeps the op's input array alive"
        total = _weighted_total(y)
    grad = tape.gradient(total, x)
    fd = central_difference(lambda v: float(_weighted_total(op(dc.mul(dc.Tensor(v), 2.0))).data), x0, 1e-5)
    assert np.max(np.abs(grad - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))
