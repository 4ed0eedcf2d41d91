from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autodiff_extra import (adaptive_avg_pool1d_loop, batch_norm, conv_transpose1d_per_tap, div,
                           exp, interp_linear_fancy, softmax, tmax)
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

    def test_masked_softmax_broadcasts_the_mask(self, rng):
        """A mask of fewer axes broadcasts to the scores' shape, `axis`
        counting the scores' axes; one that would widen them is rejected."""
        a = ad.as_tensor(rng.normal(size=(2, 3)))
        full = np.array([[True, False, True]] * 2)
        np.testing.assert_array_equal(ad.masked_softmax(a, full[0]).data,
                                      ad.masked_softmax(a, full).data)
        with pytest.raises(ShapeError, match="no unmasked"):
            ad.masked_softmax(a, np.array([True, False, True]), axis=0)
        with pytest.raises(ShapeError, match="mask of shape"):
            ad.masked_softmax(a, np.ones((4, 2, 3), bool))

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

    @pytest.mark.parametrize("constant", ["x", "w"])
    def test_conv1d_vjp_skips_constant(self, rng, constant):
        x = rng.uniform(-1, 1, (2, 6))
        w = rng.uniform(-1, 1, (3, 2, 3))
        x = ad.as_tensor(x) if constant == "x" else Parameter(x)
        w = ad.as_tensor(w) if constant == "w" else Parameter(w)
        with Tape():
            y = ad.conv1d(x, w, Parameter(np.zeros(3)), padding=1)
        dx, dw, db = y.vjp(np.ones(y.shape))
        assert (dx is None) == (constant == "x")
        assert (dw is None) == (constant == "w")
        assert db.shape == (3,)

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

    @pytest.mark.parametrize("length, out_len", [(9, 4), (13, 5), (1, 5), (6, 1), (1, 1)])
    def test_interp_grad_sizes(self, rng, length, out_len):
        """Up- and downsampling (where some samples get no gradient), a
        single-sample input and a single-sample output."""
        x = Parameter(rng.uniform(-1, 1, (2, length)))
        weights = rng.uniform(0.5, 1.5, (2, out_len))
        check(lambda: ad.tsum(ad.mul(ad.square(ad.interp_linear(x, out_len)), weights)), [x])


@settings(max_examples=60, deadline=None)
@given(channels=st.integers(1, 4), length=st.integers(1, 40), out_len=st.integers(1, 40),
       seed=st.integers(0, 10_000))
def test_adaptive_pool_matches_per_bin_loop(channels, length, out_len, seed):
    """The averaging-matrix pool against the per-bin loop: values and the
    input gradient agree to 1e-12."""
    rng = np.random.default_rng(seed)
    x_fast = Parameter(rng.normal(size=(channels, length)))
    x_loop = Parameter(x_fast.data.copy())
    weights = rng.normal(size=(channels, out_len))
    outs = []
    for pool, x in ((ad.adaptive_avg_pool1d, x_fast), (adaptive_avg_pool1d_loop, x_loop)):
        with Tape():
            y = pool(x, out_len)
            loss = ad.tsum(ad.mul(y, weights))
        backward(loss)
        outs.append(y.data)
    np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(x_fast.grad, x_loop.grad, rtol=0, atol=1e-12)


def _forward_and_vjp(op, g, *arrays, **kwargs):
    """op's output on Parameters holding `arrays`, then its VJP of g."""
    with Tape():
        y = op(*map(Parameter, arrays), **kwargs)
    return (y.data, *y.vjp(g))


@settings(max_examples=150, deadline=None)
@given(c_in=st.integers(1, 5), c_out=st.integers(1, 5), k=st.integers(1, 5),
       stride=st.integers(1, 3), padding=st.integers(0, 6), length=st.integers(1, 7),
       seed=st.integers(0, 10_000))
def test_conv_transpose_matches_per_tap(c_in, c_out, k, stride, padding, length, seed):
    """The one-product conv_transpose1d against the per-tap one: output, dx,
    dw and db each within 1e-12 times the per-tap op run on the magnitudes
    |x|, |w|, |b| and |g| (the rounding of a sum in another order).  A
    padding of K or more leaves some taps, or every tap, out of range."""
    l_out = (length - 1) * stride - 2 * padding + k
    assume(l_out >= 0)
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=(c_in, length)), rng.normal(size=(c_in, c_out, k))
    b = rng.normal(size=c_out)
    g = rng.normal(size=(c_out, l_out))
    kw = dict(stride=stride, padding=padding)
    fast = _forward_and_vjp(ad.conv_transpose1d, g, x, w, b, **kw)
    ref = _forward_and_vjp(conv_transpose1d_per_tap, g, x, w, b, **kw)
    scale = _forward_and_vjp(conv_transpose1d_per_tap, np.abs(g),
                             np.abs(x), np.abs(w), np.abs(b), **kw)
    for got, want, bound in zip(fast, ref, scale):
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-12 * bound).all()


@settings(max_examples=150, deadline=None)
@given(channels=st.integers(1, 4), length=st.integers(1, 30), out_len=st.integers(1, 90),
       seed=st.integers(0, 10_000))
def test_interp_matches_fancy_index(channels, length, out_len, seed):
    """np.take gathers and diff-found runs move no arithmetic: the output and
    the VJP equal the fancy-index form's bit for bit, up- and downsampling,
    from a single sample and to a single one."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(channels, length))
    g = rng.normal(size=(channels, out_len))
    fast = _forward_and_vjp(ad.interp_linear, g, x, out_len=out_len)
    ref = _forward_and_vjp(interp_linear_fancy, g, x, out_len=out_len)
    for got, want in zip(fast, ref):
        assert got.tobytes() == want.tobytes()


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


# Public functions that nothing in the package calls because something
# outside it does: the `vg2s` console script.
ENTRY_POINTS = {("cli", "main")}


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(ad.__file__).parent.glob("*.py"))}


def _public_functions(trees) -> set[tuple[str, str, bool]]:
    """(module, name, is_method) of every public module-level function and
    every public method of a module-level class."""
    found = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.add((mod, node.name, False))
            elif isinstance(node, ast.ClassDef):
                found |= {(mod, f"{node.name}.{sub.name}", True) for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")}
    return found


def _production_references(trees) -> tuple[set[tuple[str, str]], set[str]]:
    """What the package's own code reads: (module, name) of the module-level
    functions (by name in their module outside their own body, by a name
    imported from their module, or as `module.name`), and every attribute
    name except reads of an option, `args.<name>`.  The package's __init__
    re-exports and a module's `__main__` block do not count."""
    functions, attributes = set(), set()
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        modules, imported, owner = {}, {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
            for sub in ast.walk(node):
                owner[id(sub)] = node
        for node in ast.walk(tree):
            top = owner[id(node)] if node is not tree else tree
            if isinstance(top, ast.If) and "__main__" in ast.unparse(top.test):
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    functions.add(imported[node.id])
                elif getattr(top, "name", None) != node.id:  # a recursive call is no caller
                    functions.add((mod, node.id))
            elif isinstance(node, ast.Attribute):
                owner_name = node.value.id if isinstance(node.value, ast.Name) else None
                if owner_name != "args":  # an option on the argparse namespace
                    attributes.add(node.attr)
                if owner_name in modules:
                    functions.add((modules[owner_name], node.attr))
    return functions, attributes


def test_every_public_function_has_a_production_caller():
    """`src/vg2s` holds only what a production path reaches: a function
    that only the tests use belongs in the tests (autodiff ops in
    autodiff_extra, references beside the tests that compare with them).
    A method counts as reached when the package reads an attribute of its
    name; an entry point of the package's users is listed in
    ENTRY_POINTS."""
    trees = _package_trees()
    public = _public_functions(trees)
    assert len([name for mod, name, _ in public if mod == "autodiff"]) > 20  # the parse found the ops
    functions, attributes = _production_references(trees)
    unreached = {(mod, name) for mod, name, method in public
                 if not (name.split(".")[-1] in attributes if method else (mod, name) in functions)}
    assert unreached == ENTRY_POINTS
