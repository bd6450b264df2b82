import math

import numpy as np
import pytest
from scipy.special import erf

from gair.tensor import (
    ContractError,
    NumericError,
    ShapeMismatchError,
    Tensor,
    attention,
    backward,
    cross_entropy,
    enable_grad,
    grad_check,
    l2_normalize_rows,
    layer_norm,
    matmul,
)


def t64(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(matmul(a, b).values, [[3, 4], [5, 6]])

    def test_dot_product(self):
        out = matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        assert out.values.shape == (1, 1)
        assert out.values[0, 0] == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = t64(rng.normal(size=(4, 5)))
        b = t64(rng.normal(size=(5, 3)))
        report = grad_check(lambda x, y: matmul(x, y).sum(), [a, b], tolerance=1e-6)
        assert report.passed

    def test_flattened_rhs_matches_per_sample_reference(self):
        rng = np.random.default_rng(3)
        a, b = t64(rng.normal(size=(3, 4, 5))), t64(rng.normal(size=(5, 2)))
        g = rng.normal(size=(3, 4, 2))
        with enable_grad():
            out = matmul(a, b)
            backward((out * Tensor(g)).sum())
        assert np.allclose(out.values, np.stack([a.values[i] @ b.values for i in range(3)]), rtol=1e-12, atol=1e-12)
        assert np.allclose(a.grad, np.stack([g[i] @ b.values.T for i in range(3)]), rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, sum(a.values[i].T @ g[i] for i in range(3)), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 5), (5, 3)), ((2, 3, 5), (2, 5, 3)), ((5,), (5, 3)),
                                                 ((3, 5), (5,)), ((2, 3, 5), (5,)), ((5,), (5,)), ((5,), (2, 5, 3))])
    def test_leading_axes_gradients(self, a_shape, b_shape):
        """Any lhs whose last axis is K takes a (K, E) rhs; a 1-D or 3-D rhs
        is rejected, not broadcast."""
        rng = np.random.default_rng(4)
        a, b = t64(rng.normal(size=a_shape)), t64(rng.normal(size=b_shape))
        if len(b_shape) != 2:
            with pytest.raises(ShapeMismatchError, match="@ \\(K, E\\)"):
                matmul(a, b)
            return
        report = grad_check(lambda x, y: (matmul(x, y) * matmul(x, y)).sum(), [a, b], tolerance=1e-6)
        assert report.passed


class TestElementwise:
    @pytest.mark.parametrize("name,fn,make", [
        ("add", lambda a, b: (a + b).sum(), lambda rng: [t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4,)))]),
        ("mul", lambda a, b: (a * b).sum(), lambda rng: [t64(rng.normal(size=(3, 4))), t64(rng.normal(size=(4,)))]),
        ("gelu", lambda a: a.gelu().sum(), lambda rng: [t64(rng.normal(size=(3, 4)))]),
        ("scale", lambda a: a.scale(2.5).gelu().sum(), lambda rng: [t64(rng.normal(size=(3, 4)))]),
        ("reshape", lambda a: (a.reshape(2, 6).gelu()).sum(), lambda rng: [t64(rng.normal(size=(3, 4)))]),
        ("sum", lambda a: (a.sum(axis=1).gelu()).sum(), lambda rng: [t64(rng.normal(size=(3, 4)))]),
        ("mean", lambda a: (a.mean(axis=0).gelu()).sum(), lambda rng: [t64(rng.normal(size=(3, 4)))]),
    ])
    def test_each_op_passes_finite_difference_check(self, name, fn, make):
        rng = np.random.default_rng(7)
        for trial in range(3):
            report = grad_check(fn, make(rng), tolerance=1e-5, op_name=name)
            assert report.passed, f"{name} trial {trial}: {report.max_relative_error}"


def chain_cross_entropy(x, targets):
    """The unfused loss in numpy, as log-softmax, pick, mean and negate
    computed it: (value, softmax)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -(logp[np.arange(len(x)), targets].sum() * (1.0 / len(x))), np.exp(logp)


class TestSoftmax:
    """The softmax inside cross_entropy."""

    def test_uniform_row(self):
        out = cross_entropy(t64([[0.0, 0.0, 0.0]]), [1])
        assert abs(float(out.values) - math.log(3.0)) < 1e-15

    def test_large_values_do_not_overflow(self):
        out = cross_entropy(t64([[1000.0, 1000.0], [-1000.0, 1000.0]]), [0, 1])
        assert np.isfinite(out.values) and abs(float(out.values) - 0.5 * math.log(2.0)) < 1e-15

    def test_closed_form(self):
        out = cross_entropy(t64([[1.0, 0.0]]), [1])
        assert abs(float(out.values) - math.log(math.e + 1.0)) < 1e-15

    def test_rows_sum_to_one(self):
        """The gradient is softmax - onehot, so each row of it sums to zero."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = t64(rng.normal(0, 10, size=(5, 7)))
            with enable_grad():
                backward(cross_entropy(x, rng.integers(0, 7, size=5)))
            assert np.all(np.abs(x.grad.sum(axis=-1)) < 1e-12)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            cross_entropy(t64([[0.5, 1.0], [np.nan, 1.0]]), [0, 1])


class TestCrossEntropy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_equals_unfused_chain(self, dtype):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 4, size=(64, 320)).astype(dtype)
        targets = rng.integers(0, 320, size=64)
        out = cross_entropy(Tensor(x), targets).values
        expected, _ = chain_cross_entropy(x, targets)
        assert out.dtype == dtype and np.array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("targets", [[0, 1, 2, 3, 4], [2, 2, 0, 2, 0]], ids=["distinct", "repeated"])
    def test_gradient_is_softmax_minus_onehot(self, dtype, targets):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(0, 2, size=(5, 6)), dtype=dtype, requires_grad=True)
        with enable_grad():
            backward(cross_entropy(x, targets).scale(0.7))
        _, soft = chain_cross_entropy(x.values, targets)
        m = np.ones((), dtype) * 0.7 * (1.0 / 5)
        expected = soft * m
        expected[np.arange(5), targets] -= m
        assert x.grad.dtype == dtype and np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("targets", [[0, 1, 2, 3], [3, 3, 1, 3]], ids=["distinct", "repeated"])
    def test_gradient_vs_finite_differences(self, targets):
        rng = np.random.default_rng(33)
        for trial in range(3):
            x = t64(rng.normal(0, 2, size=(4, 5)))
            report = grad_check(lambda a: cross_entropy(a, targets), [x], tolerance=1e-6, op_name="cross_entropy")
            assert report.passed, f"trial {trial}: {report.max_relative_error}"

    def test_shape_mismatch_raises(self):
        x = t64(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatchError):
            cross_entropy(x, [0, 1])
        with pytest.raises(ShapeMismatchError):
            cross_entropy(x, [[0, 1, 2]])
        with pytest.raises(ShapeMismatchError):
            cross_entropy(t64(np.zeros(4)), [0, 1, 2, 3])

    def test_negative_target_raises(self):
        # A negative target would wrap: [-1, 0] used to give the loss of [2, 0].
        x = t64([[0.5, 1.0, 2.0], [1.0, 0.0, -1.0]])
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            cross_entropy(x, [-1, 0])
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            cross_entropy(x, [3, 0])

    def test_float_target_raises(self):
        with pytest.raises(ValueError, match="integers"):
            cross_entropy(t64([[0.5, 1.0, 2.0], [1.0, 0.0, -1.0]]), np.array([1.0, 0.0]))


def scipy_gelu(x):
    """GELU with scipy's erf in the dtype of `x`, as the engine computed it
    before float32 took its own erf."""
    return x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))


class TestFusedOps:
    @staticmethod
    def layer_norm_chain(x, gamma, beta):
        mu = x.mean(axis=-1, keepdims=True)
        centered = Tensor(x.values - mu.values)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return (centered.values / np.sqrt(var.values + 1e-6)) * gamma.values + beta.values

    @staticmethod
    def heads(x, heads):
        """(N, T, D) values viewed as (N, heads, T, D / heads), as `attention` splits them."""
        n, t, d = x.shape
        return x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_equals_primitive_chain(self, dtype):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 9, 16)), dtype=dtype, requires_grad=True)
        gamma = Tensor(rng.normal(size=16), dtype=dtype, requires_grad=True)
        beta = Tensor(rng.normal(size=16), dtype=dtype, requires_grad=True)
        fused = layer_norm(x, gamma, beta).values
        assert fused.dtype == dtype
        assert np.array_equal(fused, self.layer_norm_chain(x, gamma, beta))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_equals_primitive_chain(self, dtype):
        rng = np.random.default_rng(22)
        q, k, v = (rng.normal(size=(3, 6, 8)).astype(dtype) for _ in range(3))
        fused = attention(Tensor(q), Tensor(k), Tensor(v), 2).values
        scores = np.matmul(self.heads(q, 2), np.swapaxes(self.heads(k, 2), -1, -2)) * (1.0 / math.sqrt(4))
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        chain = np.matmul(probs / probs.sum(axis=-1, keepdims=True), self.heads(v, 2))
        assert fused.dtype == dtype and fused.shape == (3, 6, 8)
        assert np.array_equal(fused, chain.transpose(0, 2, 1, 3).reshape(3, 6, 8))

    def test_attention_heads_are_column_slices(self):
        """Head h reads and writes columns [h E, (h + 1) E) only, and mixes
        them as single-head attention with scale 1 / sqrt(E)."""
        rng = np.random.default_rng(27)
        q, k, v = (rng.normal(size=(2, 5, 6)) for _ in range(3))
        out = attention(t64(q), t64(k), t64(v), 3).values
        for h in range(3):
            cols = slice(2 * h, 2 * h + 2)
            single = attention(t64(q[..., cols]), t64(k[..., cols]), t64(v[..., cols]), 1).values
            assert np.allclose(out[..., cols], single, rtol=1e-12, atol=1e-12)
        q[..., :2] += 1.0
        moved = attention(t64(q), t64(k), t64(v), 3).values
        assert np.array_equal(moved[..., 2:], out[..., 2:]) and not np.allclose(moved[..., :2], out[..., :2])

    @pytest.mark.parametrize("name,fn,make", [
        ("layer_norm", lambda x, g, b: (layer_norm(x, g, b) * layer_norm(x, g, b).gelu()).sum(),
         lambda rng: [t64(rng.normal(size=(2, 3, 5))), t64(rng.normal(size=5)), t64(rng.normal(size=5))]),
        ("attention", lambda q, k, v: (attention(q, k, v, 2) * attention(q, k, v, 2).gelu()).sum(),
         lambda rng: [t64(rng.normal(size=(2, 3, 4))) for _ in range(3)]),
    ])
    def test_gradient_vs_finite_differences(self, name, fn, make):
        rng = np.random.default_rng(23)
        for trial in range(3):
            report = grad_check(fn, make(rng), tolerance=1e-5, op_name=name)
            assert report.passed, f"{name} trial {trial}: {report.max_relative_error}"

    def test_backward_leaves_incoming_gradient_unchanged(self):
        rng = np.random.default_rng(24)
        x, gamma, beta = t64(rng.normal(size=(3, 5))), t64(rng.normal(size=5)), t64(rng.normal(size=5))
        q, k, v = (t64(rng.normal(size=(2, 3, 4))) for _ in range(3))
        with enable_grad():
            outs = (layer_norm(x, gamma, beta), attention(q, k, v, 2), x.gelu())
        for out in outs:
            g = rng.normal(size=out.shape)
            kept = g.copy()
            out._backward(g)
            assert np.array_equal(g, kept)

    def test_attention_nan_scores_raise(self):
        q = t64(np.ones((2, 3, 4)))
        k = t64(np.ones((2, 3, 4)))
        k.values[1, 2, 0] = np.nan
        with pytest.raises(NumericError):
            attention(q, k, t64(np.ones((2, 3, 4))), 2)

    def test_shape_mismatch_raises(self):
        a, b = t64(np.ones((2, 3, 4))), t64(np.ones((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            attention(a, a, b, 2)
        with pytest.raises(ShapeMismatchError, match="divisible by 3 heads"):
            attention(a, a, a, 3)
        flat = t64(np.ones((3, 4)))
        with pytest.raises(ShapeMismatchError):
            attention(flat, flat, flat, 2)
        with pytest.raises(ShapeMismatchError):
            layer_norm(a, t64(np.ones(3)), t64(np.zeros(4)))

    def test_float32_gelu_is_within_1e6_of_scipy(self):
        x = np.linspace(-10.0, 10.0, 400_001, dtype=np.float32)
        out = Tensor(x).gelu().values
        assert out.dtype == np.float32
        assert float(np.max(np.abs(out.astype(np.float64) - scipy_gelu(x)))) <= 1e-6

    def test_float32_gelu_special_values_as_with_scipy(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e30, -1e30], dtype=np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            out = Tensor(x).gelu().values
            expected = scipy_gelu(x)
        assert np.isnan(out[0]) and out[1] == np.inf and np.isnan(out[2])
        assert np.array_equal(out, expected, equal_nan=True)

    def test_float64_gelu_is_scipy_bit_for_bit(self):
        x = np.random.default_rng(25).normal(0.0, 4.0, size=10_000)
        assert np.array_equal(t64(x).gelu().values, scipy_gelu(x))

    def test_float32_gelu_gradient_matches_float64(self):
        x = np.random.default_rng(26).normal(0.0, 3.0, size=1000)
        grads = []
        for dtype in (np.float32, np.float64):
            t = Tensor(x, dtype=dtype, requires_grad=True)
            with enable_grad():
                backward(t.gelu().sum())
            grads.append(t.grad)
        assert grads[0].dtype == np.float32
        assert np.allclose(grads[0], grads[1], rtol=0.0, atol=2e-6)


class TestL2Normalize:
    def test_3_4_5(self):
        out = l2_normalize_rows(t64([[3.0, 4.0]]))
        assert np.allclose(out.values, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        out = l2_normalize_rows(t64([[0.0, 0.0]]), eps=1e-12)
        assert np.array_equal(out.values, [[0.0, 0.0]])

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(3, 5)))
        report = grad_check(lambda a: (l2_normalize_rows(a).gelu()).sum(), [x], tolerance=1e-5)
        assert report.passed


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        with enable_grad():
            backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0])
        with enable_grad():
            backward((x * x).sum())
        assert np.allclose(x.grad, 2 * x.values)

    def test_fanout_accumulates(self):
        y = t64([5.0])
        with enable_grad():
            backward((y + y).sum())
        assert np.array_equal(y.grad, [2.0])

    def test_n_fold_fanout(self):
        y = t64([1.5])
        acc = y
        with enable_grad():
            for _ in range(4):
                acc = acc + y
            backward(acc.sum())
        assert np.array_equal(y.grad, [5.0])

    def test_constants_get_no_gradient(self):
        x = t64([1.0, 2.0, 3.0])
        c = t64([[4.0, 5.0, 6.0]], rg=False)
        with enable_grad():
            out = (x * c).sum()
            backward(out)
            assert c.grad is None and np.array_equal(x.grad, [4.0, 5.0, 6.0])
            const = c * c
        assert not const.requires_grad and const._parents == ()

    def test_non_scalar_root_raises(self):
        with pytest.raises(ContractError):
            backward(t64([1.0, 2.0]))

    def test_root_grad_is_one(self):
        x = t64([2.0])
        with enable_grad():
            root = (x * x).sum()
            backward(root)
        assert np.array_equal(root.grad, np.ones(()))


class TestGraphRecording:
    def test_ops_outside_enable_grad_record_nothing(self):
        x = t64([1.0, -2.0, 3.0])
        out = (x * x).gelu().sum()
        assert out._parents == () and out._backward is None and not out.requires_grad
        with enable_grad():
            tracked = (x * x).gelu().sum()
        assert tracked._parents != () and tracked.requires_grad
        assert np.array_equal(out.values, tracked.values)

    def test_backward_on_untracked_root_raises(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ContractError, match="no recorded graph"):
            backward((x * x).sum())
        with enable_grad():
            constant = (t64([1.0, 2.0], rg=False) * 2.0).sum()
        with pytest.raises(ContractError, match="no recorded graph"):
            backward(constant)
        assert x.grad is None

    def test_untracked_intermediate_in_tracked_op_raises(self):
        x = t64([1.0, 2.0])
        h = (x * x).gelu()  # computed outside from x, which requires grad
        with enable_grad():
            with pytest.raises(ContractError, match="outside enable_grad"):
                h + x
            with pytest.raises(ContractError, match="outside enable_grad"):
                h.sum()
            # Outside values of constants, and fresh leaves, are fine.
            c = t64([3.0, 4.0], rg=False).gelu()
            backward((Tensor(h.values) * c * x).sum())
        assert np.array_equal(x.grad, h.values * c.values)

    def test_enable_grad_nests_and_restores_after_an_exception(self):
        x = t64([1.0])

        def recording():
            return (x * x)._parents != ()

        assert not recording()
        with enable_grad():
            with enable_grad():
                assert recording()
            assert recording()
        assert not recording()
        with pytest.raises(KeyError):
            with enable_grad():
                raise KeyError("inside")
        assert not recording()

    def test_grad_check_leaves_recording_off(self):
        x = t64([0.5, 1.5])
        assert grad_check(lambda a: (a * a).sum(), [x]).passed
        assert (x * x)._parents == ()


class TestGradCheck:
    def test_sum_exact(self):
        x = t64(np.random.default_rng(0).normal(size=(3,)))
        report = grad_check(lambda a: a.sum(), [x], tolerance=1e-6, op_name="sum")
        assert report.passed and report.max_relative_error < 1e-8

    def test_corrupted_backward_fails(self):
        def bad_square(x):
            def bwd(g):
                x._accumulate(g * x.values)  # the true derivative is 2x

            return Tensor._make(x.values * x.values, (x,), bwd)

        x = t64(np.random.default_rng(2).normal(size=(3, 2)))
        assert grad_check(lambda a: (a * a).sum(), [x], tolerance=1e-5).passed
        report = grad_check(lambda a: bad_square(a).sum(), [x], tolerance=1e-5)
        assert not report.passed

    def test_32bit_inputs_rejected(self):
        with pytest.raises(ContractError):
            grad_check(lambda a: a.sum(), [Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)])


def test_forward_determinism():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(4, 4))

    def run():
        x = t64(vals.copy())
        with enable_grad():
            out = cross_entropy(matmul(x, x).gelu() * x.gelu(), [0, 3, 3, 1])
            backward(out)
        return out.values.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_gradient_fidelity_over_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(4, 2)))
        report = grad_check(
            lambda a, b: cross_entropy(matmul(a, b) * l2_normalize_rows(matmul(a, b)).gelu(), [1, 0, 1]),
            [x, w],
            tolerance=1e-4,
        )
        assert report.passed


def test_every_free_op_has_an_audit_case():
    """Each differentiable free function the engine exports (one annotated to
    return a Tensor) and each differentiable Tensor method is audited by
    `gair gradcheck` under its own name; an operator method goes by the op's
    name (`__add__` by `add`), and `sum` and `mean` by their audit cases
    over one axis. Each function `gair.objectives` exports that returns a
    Tensor is audited, `combined_loss` through the end-to-end
    `combined_pipeline` case. Each function `gair.inr` exports that returns
    a Tensor is audited too, or is forward-only: inside enable_grad() it
    refuses an input that requires grad, so no gradient can stop at it
    silently."""
    import inspect

    import gair.inr as inr
    import gair.objectives as objectives
    import gair.tensor as T
    from gair.gradaudit import audit_cases

    def tensor_functions(module):
        return {name for name in module.__all__ if inspect.isfunction(getattr(module, name))
                and inspect.signature(getattr(module, name)).return_annotation == "Tensor"}

    ops = tensor_functions(T)
    assert {"matmul", "cross_entropy", "attention"} <= ops
    not_ops = {"__init__", "__repr__", "zero_grad", "_accumulate", "_coerce"}
    aliases = {"__add__": "add", "__radd__": "add", "__mul__": "mul", "__rmul__": "mul",
               "__matmul__": "matmul", "sum": "sum_axis", "mean": "mean_axis"}
    methods = {aliases.get(name, name) for name, attr in vars(Tensor).items()
               if inspect.isfunction(attr) and name not in not_ops}
    assert {"add", "mul", "scale", "gelu", "reshape", "sum_axis"} <= methods
    audited = {name for name, _, _ in audit_cases()}
    assert ops <= audited, f"no audit case for {sorted(ops - audited)}"
    assert methods <= audited, f"no audit case for Tensor methods {sorted(methods - audited)}"

    losses = tensor_functions(objectives)
    assert {"incl_loss", "secl_loss", "combined_loss"} <= losses
    unaudited = {name for name in losses if {"combined_loss": "combined_pipeline"}.get(name, name) not in audited}
    assert not unaudited, f"no audit case for {sorted(unaudited)}"

    inr_ops = tensor_functions(inr)
    assert {"inr_lookup", "unfold3x3", "inr_query_batch"} <= inr_ops
    rng = np.random.default_rng(0)
    params = inr.FThetaParams.init(2, rng, dtype=np.float64)
    fm = Tensor(rng.normal(size=(1, 3, 3, 2)), requires_grad=True)
    unfolded = inr.unfold3x3(Tensor(fm.values))
    forward_only = {
        "unfold3x3": lambda: inr.unfold3x3(fm),
        "inr_query_batch": lambda: inr.inr_query_batch(params, unfolded, np.zeros((1, 2))),
    }
    assert inr_ops - audited == set(forward_only), f"neither audited nor forward-only: {sorted(inr_ops - audited - set(forward_only))}"
    for call in forward_only.values():
        with enable_grad(), pytest.raises(ContractError, match="forward-only"):
            call()


@pytest.mark.parametrize("seed", [0, 3])
def test_each_audit_case_draws_from_its_own_stream(seed):
    """A case's first input is the first draw of its own generator, keyed by
    the seed and the case's name, so adding or deleting a case moves no
    other case's inputs."""
    from gair.gradaudit import _case_rng, audit_cases

    for name, _, inputs in audit_cases(seed):
        first = inputs[0].values
        # The pipeline's first input is the RS patch embedding, drawn at 1/sqrt(fan-in).
        scale = 1 / math.sqrt(first.shape[0]) if name == "combined_pipeline" else 1.0
        assert np.array_equal(first, _case_rng(seed, name).normal(0, scale, first.shape)), name
