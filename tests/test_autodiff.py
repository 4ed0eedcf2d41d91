from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from autodiff_extra import batch_norm, div, exp, softmax, tmax
from helpers import grad_check
from vg2s import autodiff as ad
from vg2s.autodiff import Parameter, ShapeError, Tape, backward, zero_grad


def check(f, params, tol=1e-6):
    passed, rel = grad_check(f, params, tol=tol)
    assert passed, f"max relative gradient error {rel}"


class TestBasics:
    def test_identity(self, rng):
        p = Parameter(rng.uniform(-2, 2, 5))
        passed, rel = grad_check(lambda: ad.tsum(p), [p])
        assert passed and rel < 1e-8

    def test_scalar_loss_required(self):
        p = Parameter(np.ones(3))
        with Tape():
            y = ad.mul(p, 2.0)
        with pytest.raises(ShapeError):
            backward(y)

    def test_detached_loss_rejected(self):
        with Tape():
            y = ad.tsum(ad.as_tensor(np.ones(3)))
        with pytest.raises(ValueError):
            backward(y)

    def test_grad_accumulates_across_calls(self):
        p = Parameter(np.array([2.0]))
        for _ in range(2):
            with Tape():
                loss = ad.tsum(ad.square(p))
            backward(loss)
        np.testing.assert_allclose(p.grad, [8.0])
        zero_grad([p])
        np.testing.assert_allclose(p.grad, [0.0])

    def test_backward_consumes_graph(self):
        p = Parameter(np.array([2.0]))
        with Tape() as tape:
            hidden = ad.square(p)
            loss = ad.tsum(hidden)
        backward(loss)
        np.testing.assert_allclose(p.grad, [4.0])
        assert len(tape.nodes) == 2  # the walked length stays readable
        assert all(node.parents == () and node.vjp is None for node in tape.nodes)
        np.testing.assert_allclose(hidden.data, [4.0])
        with pytest.raises(ValueError, match="already consumed"):
            backward(loss)
        np.testing.assert_allclose(p.grad, [4.0])

    def test_no_tape_no_recording(self):
        p = Parameter(np.ones(2))
        y = ad.tsum(ad.mul(p, 3.0))
        assert y.tape is None
        # nothing will walk it, so it keeps no inputs alive
        assert y.parents == () and y.vjp is None
        with Tape() as tape:
            c = exp(np.ones(2))  # constants only: not recorded either
        assert tape.nodes == [] and c.parents == () and c.vjp is None


class TestArithmeticGrads:
    def test_add_mul_div_broadcast(self, rng):
        a = Parameter(rng.uniform(-2, 2, (3, 4)))
        b = Parameter(rng.uniform(0.5, 2, (1, 4)))
        check(lambda: ad.tsum(ad.sub(div(ad.mul(ad.add(a, b), a), b), b)), [a, b])

    def test_matmul(self, rng):
        a = Parameter(rng.uniform(-1, 1, (3, 4)))
        b = Parameter(rng.uniform(-1, 1, (4, 2)))
        check(lambda: ad.tsum(ad.square(ad.matmul(a, b))), [a, b])

    def test_vector_matmul(self, rng):
        v = Parameter(rng.uniform(-1, 1, 4))
        m = Parameter(rng.uniform(-1, 1, (4, 3)))
        check(lambda: ad.tsum(ad.matmul(v, m)), [v, m])

    @pytest.mark.parametrize("const_shape, param_shape", [((2, 5, 3), (3, 4)), ((3,), (3, 4))])
    def test_matmul_vjp_skips_constant(self, rng, const_shape, param_shape):
        """A constant operand gets no gradient computed; the other gets the
        same gradient as when both are parameters."""
        const = rng.uniform(-1, 1, const_shape)
        p = Parameter(rng.uniform(-1, 1, param_shape))
        with Tape():
            y = ad.matmul(const, p)
            taped_const = ad.matmul(Parameter(const), p)
        g = rng.uniform(-1, 1, y.shape)
        g_const, g_p = y.vjp(g)
        assert g_const is None
        np.testing.assert_array_equal(g_p, taped_const.vjp(g)[1])
        with Tape():
            y = ad.matmul(p, p.data.T)  # the constant on the right
        assert y.vjp(np.ones(y.shape))[1] is None

    def test_matmul_shape_error(self):
        a = Parameter(np.ones((2, 3)))
        b = Parameter(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.matmul(a, b)

    def test_exp_log_square(self, rng):
        p = Parameter(rng.uniform(0.5, 2, 6))
        check(lambda: ad.tsum(ad.add(ad.log(exp(p)), ad.square(p))), [p])


class TestReductionGrads:
    def test_sum_axes(self, rng):
        p = Parameter(rng.uniform(-2, 2, (3, 5)))
        check(lambda: ad.tsum(ad.square(ad.tsum(p, axis=1))), [p])

    def test_mean(self, rng):
        p = Parameter(rng.uniform(-2, 2, (4, 3)))
        check(lambda: ad.tsum(ad.square(ad.tmean(p, axis=0))), [p])

    def test_max_away_from_ties(self):
        p = Parameter(np.array([[1.0, 3.0, 2.0], [5.0, 0.0, 4.0]]))
        check(lambda: ad.tsum(ad.square(tmax(p, axis=1))), [p])

    def test_max_tie_goes_to_first(self):
        p = Parameter(np.array([2.0, 2.0, 1.0]))
        with Tape():
            loss = ad.tsum(tmax(p, axis=0))
        backward(loss)
        np.testing.assert_allclose(p.grad, [1.0, 0.0, 0.0])


class TestRestructuringGrads:
    def test_reshape_transpose(self, rng):
        p = Parameter(rng.uniform(-1, 1, (2, 6)))
        check(lambda: ad.tsum(ad.square(ad.transpose(ad.reshape(p, (3, 4))))), [p])

    def test_concat_split_round_trip(self, rng):
        a = Parameter(rng.uniform(-1, 1, (2, 3)))
        b = Parameter(rng.uniform(-1, 1, (4, 3)))

        def f():
            joined = ad.concat([a, b], axis=0)
            x, y = ad.split(joined, [2, 4], axis=0)
            return ad.add(ad.tsum(ad.square(x)), ad.tsum(ad.mul(ad.square(y), 2.0)))

        check(f, [a, b])

    def test_split_bad_sizes(self):
        p = Parameter(np.ones((5, 2)))
        with pytest.raises(ShapeError):
            ad.split(p, [2, 2], axis=0)

    def test_take_with_repeats(self, rng):
        p = Parameter(rng.uniform(-1, 1, (4, 3)))
        idx = np.array([0, 2, 2, 1])
        check(lambda: ad.tsum(ad.square(ad.take(p, idx, axis=0))), [p])


class TestActivationGrads:
    def test_piecewise_away_from_kinks(self, rng):
        vals = rng.uniform(0.1, 2, 8) * rng.choice([-1.0, 1.0], 8)
        p = Parameter(vals)
        check(lambda: ad.tsum(ad.leaky_relu(p)), [p])
        check(lambda: ad.tsum(ad.elu(p)), [p])

    def test_smooth_activations(self, rng):
        p = Parameter(rng.uniform(-2, 2, 7))
        check(lambda: ad.tsum(ad.square(ad.tanh(p))), [p])
        check(lambda: ad.tsum(ad.square(ad.sigmoid(p))), [p])
        check(lambda: ad.tsum(ad.square(ad.softplus(p))), [p])

    def test_softplus_zero(self):
        y = ad.softplus(ad.as_tensor(np.array([0.0])))
        np.testing.assert_allclose(y.data, [np.log(2.0)])

    def test_softmax_rows_sum_to_one(self, rng):
        p = ad.as_tensor(rng.uniform(-5, 5, (4, 6)))
        np.testing.assert_allclose(softmax(p).data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_grad(self, rng):
        p = Parameter(rng.uniform(-2, 2, (2, 5)))
        w = rng.uniform(-1, 1, (2, 5))
        check(lambda: ad.tsum(ad.mul(softmax(p), w)), [p])

    def test_masked_softmax_zeroes_masked(self, rng):
        mask = np.array([[True, False, True], [False, True, True]])
        y = ad.masked_softmax(ad.as_tensor(rng.normal(size=(2, 3))), mask)
        assert np.all(y.data[~mask] == 0.0)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_softmax_single_survivor(self):
        mask = np.array([[False, True, False]])
        y = ad.masked_softmax(ad.as_tensor(np.array([[5.0, -3.0, 1.0]])), mask)
        np.testing.assert_allclose(y.data, [[0.0, 1.0, 0.0]])

    def test_masked_softmax_all_masked_rejected(self):
        with pytest.raises(ShapeError):
            ad.masked_softmax(ad.as_tensor(np.ones((1, 3))), np.zeros((1, 3), bool))

    def test_masked_softmax_grad(self, rng):
        p = Parameter(rng.uniform(-2, 2, (2, 4)))
        mask = np.array([[True, True, False, True], [True, False, True, True]])
        w = rng.uniform(-1, 1, (2, 4))
        check(lambda: ad.tsum(ad.mul(ad.masked_softmax(p, mask), w)), [p])

    def test_logsumexp(self, rng):
        p = Parameter(rng.uniform(-2, 2, (3, 4)))
        check(lambda: ad.tsum(ad.logsumexp(p)), [p])
        big = ad.logsumexp(ad.as_tensor(np.array([1000.0, 1000.0])), axis=0)
        np.testing.assert_allclose(big.data, 1000.0 + np.log(2.0))

    def test_clamp(self, rng):
        p = Parameter(np.array([-3.0, -0.5, 0.5, 3.0]))
        check(lambda: ad.tsum(ad.square(ad.clamp(p, -1.0, 1.0))), [p])


class TestNormConv:
    def test_batch_norm_grad(self, rng):
        x = Parameter(rng.uniform(-2, 2, (5, 3)))
        gamma = Parameter(rng.uniform(0.5, 1.5, 3))
        beta = Parameter(rng.uniform(-1, 1, 3))
        check(lambda: ad.tsum(ad.square(batch_norm(x, gamma, beta))),
              [x, gamma, beta], tol=1e-4)

    def test_batch_norm_single_row_is_affine(self, rng):
        x = ad.as_tensor(rng.normal(size=(1, 3)))
        gamma = Parameter(np.full(3, 2.0))
        beta = Parameter(np.ones(3))
        y = batch_norm(x, gamma, beta)
        np.testing.assert_allclose(y.data, x.data * 2.0 + 1.0)

    def test_batch_norm_output_statistics(self, rng):
        x = ad.as_tensor(rng.normal(size=(50, 4)))
        y = batch_norm(x, Parameter(np.ones(4)), Parameter(np.zeros(4)))
        np.testing.assert_allclose(y.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.data.std(axis=0), 1.0, atol=1e-3)

    def test_conv1d_known_value(self):
        x = ad.as_tensor(np.array([[1.0, 2.0, 3.0]]))
        w = ad.as_tensor(np.array([[[1.0, 1.0]]]))
        y = ad.conv1d(x, w)
        np.testing.assert_allclose(y.data, [[3.0, 5.0]])

    def test_conv1d_grad(self, rng):
        x = Parameter(rng.uniform(-1, 1, (2, 6)))
        w = Parameter(rng.uniform(-1, 1, (3, 2, 3)))
        b = Parameter(rng.uniform(-1, 1, 3))
        check(lambda: ad.tsum(ad.square(ad.conv1d(x, w, b, padding=1))), [x, w, b])

    def test_conv1d_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ad.conv1d(ad.as_tensor(np.ones((2, 5))), ad.as_tensor(np.ones((1, 3, 3))))

    def test_conv_transpose_doubles_length(self, rng):
        x = ad.as_tensor(rng.normal(size=(3, 5)))
        w = ad.as_tensor(rng.normal(size=(3, 2, 4)))
        y = ad.conv_transpose1d(x, w, stride=2, padding=1)
        assert y.data.shape == (2, 10)

    def test_conv_transpose_grad(self, rng):
        x = Parameter(rng.uniform(-1, 1, (2, 4)))
        w = Parameter(rng.uniform(-1, 1, (2, 3, 4)))
        b = Parameter(rng.uniform(-1, 1, 3))
        check(lambda: ad.tsum(ad.square(ad.conv_transpose1d(x, w, b))), [x, w, b])

    def test_adaptive_pool_identity(self, rng):
        x = ad.as_tensor(rng.normal(size=(2, 5)))
        np.testing.assert_allclose(ad.adaptive_avg_pool1d(x, 5).data, x.data)

    def test_adaptive_pool_mean(self):
        x = ad.as_tensor(np.array([[1.0, 3.0, 5.0, 7.0]]))
        y = ad.adaptive_avg_pool1d(x, 2)
        np.testing.assert_allclose(y.data, [[2.0, 6.0]])

    def test_adaptive_pool_grad(self, rng):
        x = Parameter(rng.uniform(-1, 1, (2, 7)))
        check(lambda: ad.tsum(ad.square(ad.adaptive_avg_pool1d(x, 3))), [x])

    def test_interp_endpoints(self, rng):
        x = ad.as_tensor(rng.normal(size=(2, 5)))
        y = ad.interp_linear(x, 9)
        np.testing.assert_allclose(y.data[:, 0], x.data[:, 0])
        np.testing.assert_allclose(y.data[:, -1], x.data[:, -1])

    def test_interp_grad(self, rng):
        x = Parameter(rng.uniform(-1, 1, (2, 4)))
        check(lambda: ad.tsum(ad.square(ad.interp_linear(x, 7))), [x])


class TestComposite:
    def test_two_layer_network(self, rng):
        w1 = Parameter(rng.uniform(-0.5, 0.5, (6, 8)))
        b1 = Parameter(np.zeros(8))
        w2 = Parameter(rng.uniform(-0.5, 0.5, (8, 1)))
        x = np.asarray(rng.uniform(-1, 1, (4, 6)))

        def f():
            h = ad.tanh(ad.add(ad.matmul(ad.as_tensor(x), w1), b1))
            return ad.tmean(ad.square(ad.matmul(h, w2)))

        check(f, [w1, b1, w2])


def _production_calls() -> set[str]:
    """Names of the vg2s.autodiff functions that production code calls:
    `ad.<name>(...)` or an imported `<name>(...)` in another vg2s module, or
    a call from one autodiff function to another."""
    called = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "autodiff.py":
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    called |= {node.func.id for node in ast.walk(fn)
                               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                               and node.func.id != fn.name}
            continue
        modules, names = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                names.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module is None:
                modules |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id in modules:
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in names:
                called.add(names[func.id])
    return called


def test_every_public_function_has_a_production_caller():
    """The engine holds only what the networks run: an op that only the
    tests use belongs in autodiff_extra."""
    tree = ast.parse(Path(ad.__file__).read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert len(public) > 20  # the parse found the ops
    assert public - _production_calls() == set()
