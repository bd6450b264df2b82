"""Dense-tensor arithmetic with reverse-mode automatic differentiation.

Small numpy-backed engine holding exactly the ops the model runs: the
patch-transformer encoders, the location MLP and the contrastive losses,
each validated against finite differences. The continuous feature lookup
builds its one node on `Tensor._make` in `gair.inr`. Tensors are not
indexed: a gather is part of the closed-form node that needs it.

The graph is opt-in. Inside `with enable_grad():` an op whose parent
requires grad records its parents and a closure that accumulates gradients
into them. Outside, every op computes the same values, bit for bit, and
keeps neither, so forward-only passes (embedding, heatmaps, probes'
predictions) hold no graph. Three checks keep the default from failing
silently: `backward` rejects a root with no recorded graph, an op inside
`enable_grad()` rejects a parent computed outside it from tensors that
require grad, whose gradient would otherwise stop there, and a
forward-only op (a `_make` node with no backward, such as
`gair.inr.unfold3x3`) rejects a parent that requires grad there.

Graph work has BLAS's threads: inside `enable_grad()` and during
`backward`, BLAS runs the thread count it loaded with; everywhere else,
where `gair.parallel` found OpenBLAS, it runs one, and forward-only
encoders spread blocks over the cores instead. BLAS threads do not change
a byte of training.

Where the math has a closed form it is one node: `layer_norm`,
multi-head `attention` (head split, scores, softmax, mix and head merge
over (N, T, D) projections), `Tensor.gelu` and `cross_entropy` (every
softmax loss: both InfoNCE objectives and the classification probe).
`matmul` takes only a (K, E) right-hand side, which every weight and
similarity product is, and runs as one 2-D GEMM.

Dtype contract: an op computes in the dtype of its inputs. GELU's erf is
the one place the two dtypes differ in method: float64 takes
`scipy.special.erf` (so `grad_check` sees the exact function), float32 a
vectorized A&S 7.1.26 approximation (`_erf_f32`) that keeps GELU within
1e-6 of scipy's.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .parallel import graph_blas_threads

__all__ = [
    "Tensor",
    "GradCheckReport",
    "ShapeMismatchError",
    "NumericError",
    "ContractError",
    "enable_grad",
    "grad_enabled",
    "concat",
    "matmul",
    "cross_entropy",
    "layer_norm",
    "attention",
    "l2_normalize_rows",
    "backward",
    "grad_check",
]


class ShapeMismatchError(ValueError):
    pass


class NumericError(ArithmeticError):
    pass


class ContractError(RuntimeError):
    pass


_grad_enabled = False


@contextmanager
def enable_grad():
    """Record the autodiff graph for the ops run inside the block, with BLAS
    at its load-time thread count (`parallel.graph_blas_threads`).

    Nests, and restores the previous state on exit, also on an exception.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, True
    try:
        with graph_blas_threads():
            yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """True inside `enable_grad()`."""
    return _grad_enabled


# Plain Python floats: under NEP 50 a numpy float64 scalar would promote
# float32 activations to float64.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz & Stegun 7.1.26: erf(z) = 1 - t (a1 + t (a2 + ... + t a5)) exp(-z^2)
# with t = 1 / (1 + p z), for z >= 0; absolute error at most 1.5e-7.
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_CHUNK = 1 << 16  # elements per pass that stay in cache between the passes


def _erf_f32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 array by A&S 7.1.26, in float32 arithmetic.

    Its float32 error (at most 5.5e-7) sits near z = 0, where GELU weights
    it by |x|; towards erf = +-1 the tail term vanishes, so large |z| and
    +-inf give +-1 exactly, and NaN stays NaN. GELU then stays within one
    float32 ulp of scipy's on [-10, 10]. The clamped rational erf of Eigen
    and XLA, evaluated in float32, is off by up to 4.5e-7 near erf = +-1,
    which moves GELU by up to 1.4e-6 at x = 4.5. The array is walked in
    chunks so that its ~20 passes reuse cached data.
    """
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    a = np.empty(min(flat.size, _CHUNK), dtype=flat.dtype)
    t = np.empty_like(a)
    for s in range(0, flat.size, _CHUNK):
        zs, e = flat[s : s + _CHUNK], out[s : s + _CHUNK]
        aa, tt = a[: zs.size], t[: zs.size]
        np.abs(zs, out=aa)
        np.multiply(aa, _AS_P, out=tt)
        tt += 1.0
        np.divide(1.0, tt, out=tt)
        np.multiply(tt, _AS_A[4], out=e)
        for c in _AS_A[3::-1]:
            e += c
            e *= tt
        np.multiply(aa, aa, out=aa)
        np.negative(aa, out=aa)
        np.exp(aa, out=aa)
        e *= aa
        np.subtract(1.0, e, out=e)
        np.copysign(e, zs, out=e)
    return out.reshape(z.shape)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the differentiation graph, wrapping a dense float array."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "_untracked")

    def __init__(self, values, requires_grad=False, dtype=None):
        arr = np.asarray(values)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        # Computed outside enable_grad() from tensors that require grad.
        self._untracked = False

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        """Add `g` into `self.grad`; a tensor that does not require grad
        (a constant) keeps `grad` None.

        The first gradient is stored without a copy, so it may alias a
        sibling's gradient or a view of the child's. That is safe only while
        no code writes into a gradient array in place: later accumulation,
        gradient clipping and the optimizer all rebind `grad` instead.
        """
        if not self.requires_grad:
            return
        g = g.astype(self.values.dtype, copy=False)
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- graph construction helper ------------------------------------------

    @staticmethod
    def _make(values, parents, backward):
        # Inside enable_grad(), a node joins the graph iff a parent requires
        # grad (a forward-only node, backward None, refuses). Outside, it records nothing.
        out = Tensor(values)
        if not _grad_enabled:
            out._untracked = any(p.requires_grad or p._untracked for p in parents)
        elif any(p._untracked for p in parents):
            raise ContractError("an input was computed outside enable_grad() from tensors that require grad; "
                                "no gradient would reach them, so compute it inside the block")
        elif backward is None and any(p.requires_grad for p in parents):
            raise ContractError("a forward-only op got an input that requires grad inside enable_grad()")
        elif any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.values.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out_vals = self.values + other.values

        def bwd(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_vals, (self, other), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out_vals = self.values - other.values

        def bwd(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(-_unbroadcast(g, other.shape))

        return Tensor._make(out_vals, (self, other), bwd)

    def __mul__(self, other):
        other = self._coerce(other)
        out_vals = self.values * other.values
        a_vals, b_vals = self.values, other.values

        def bwd(g):
            self._accumulate(_unbroadcast(g * b_vals, self.shape))
            other._accumulate(_unbroadcast(g * a_vals, other.shape))

        return Tensor._make(out_vals, (self, other), bwd)

    __rmul__ = __mul__

    def scale(self, c: float) -> "Tensor":
        c = float(c)

        def bwd(g):
            self._accumulate(g * c)

        return Tensor._make(self.values * c, (self,), bwd)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise functions ----------------------------------------------

    def gelu(self):
        """Erf-based GELU, x * Phi(x). Float64 takes erf from scipy; float32
        uses `_erf_f32`, whose GELU stays within 1e-6 of scipy's."""
        x = self.values
        z = x * _INV_SQRT2
        phi = 0.5 * (1.0 + (_erf_f32(z) if x.dtype == np.float32 else erf(z)))
        out_vals = x * phi

        def bwd(g):
            # d/dx x*Phi(x) = Phi(x) + x * exp(-x^2/2) / sqrt(2 pi)
            d = -0.5 * x * x
            np.exp(d, out=d)
            d *= _INV_SQRT_2PI
            d *= x
            d += phi
            d *= g
            self._accumulate(d)

        return Tensor._make(out_vals, (self,), bwd)

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape

        def bwd(g):
            self._accumulate(g.reshape(old_shape))

        return Tensor._make(self.values.reshape(shape), (self,), bwd)

    def transpose(self):
        """The matrix transpose; in general, the axes reversed."""

        def bwd(g):
            self._accumulate(g.T)

        return Tensor._make(self.values.T, (self,), bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_vals = self.values.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape).copy())

        return Tensor._make(out_vals, (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.size
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims).scale(1.0 / n)


# -- free functions -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., K) @ (K, E) with the leading axes of `a` flattened, so the
    forward product and both gradients are each one 2-D GEMM."""
    if b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul needs (..., K) @ (K, E), got {a.shape} @ {b.shape}")
    a2 = a.values.reshape(-1, a.shape[-1])
    b_vals = b.values
    out_vals = (a2 @ b_vals).reshape(a.shape[:-1] + (b.shape[1],))

    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        a._accumulate((g2 @ b_vals.T).reshape(a.shape))
        b._accumulate(a2.T @ g2)

    return Tensor._make(out_vals, (a, b), bwd)


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    out_vals = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accumulate(piece)

    return Tensor._make(out_vals, tuple(tensors), bwd)


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max of each last-axis row, keepdims. Folding the rows in halves is
    faster than numpy's reduction over short last axes, and a max is exact
    in any order; np.maximum propagates NaN, as a reduction does."""
    m = x
    while m.shape[-1] > 1:
        h = m.shape[-1] // 2
        folded = np.maximum(m[..., :h], m[..., h : 2 * h])
        if m.shape[-1] % 2:
            folded[..., :1] = np.maximum(folded[..., :1], m[..., -1:])
        m = folded
    return m


def _shifted_rows(x: np.ndarray, what: str) -> np.ndarray:
    """`x` minus its row max, in a new array. A NaN anywhere in a row makes
    that row's max NaN, so checking the maxima finds every NaN input."""
    row_max = _row_max(x)
    if np.isnan(row_max).any():
        raise NumericError(f"{what} of NaN input")
    return x - row_max


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over the rows of (n, K) `logits` of -log softmax(row)[target].

    One node: its value equals that of the chain log-softmax, pick at the
    targets, mean and negate bit for bit, and its backward is the closed
    form (softmax - onehot(targets)) * g / n. A NaN anywhere in a row
    raises NumericError. Targets must be integers in [0, K), else
    ValueError: a negative target would wrap to another class."""
    targets = np.asarray(targets)
    n = logits.shape[0]
    if logits.ndim != 2 or targets.shape != (n,):
        raise ShapeMismatchError(f"cross_entropy needs (n, K) logits and n targets, got {logits.shape} and {targets.shape}")
    if not np.issubdtype(targets.dtype, np.integer) or n and not (0 <= targets.min() and targets.max() < logits.shape[1]):
        raise ValueError(f"cross_entropy targets must be integers in [0, {logits.shape[1]})")
    rows = np.arange(n)
    shifted = _shifted_rows(logits.values, "cross_entropy")
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_vals = -(logp[rows, targets].sum() * (1.0 / n))
    soft = np.exp(logp)

    def bwd(g):
        m = g * (1.0 / n)
        d = soft * m
        d[rows, targets] -= m
        logits._accumulate(d)

    return Tensor._make(out_vals, (logits,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each last-axis row of `x` to zero mean and unit variance
    (eps 1e-6), then scale by `gamma` and shift by `beta`, both of shape
    (D,). One node: its values equal those of the primitive-op chain
    ((x - mean) / sqrt(var + eps) * gamma + beta) bit for bit, and its
    backward is the closed form
    dx = (g gamma - mean(g gamma) - xhat mean(g gamma xhat)) / std."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatchError(f"layer_norm of rows of {d} needs gamma and beta of shape ({d},): {gamma.shape}, {beta.shape}")
    inv_d = 1.0 / d
    vals = x.values
    xhat = vals - vals.sum(axis=-1, keepdims=True) * inv_d
    std = np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) * inv_d + 1e-6)
    xhat /= std
    out_vals = xhat * gamma.values + beta.values
    xhat2, std2 = xhat.reshape(-1, d), std.reshape(-1, 1)

    def bwd(g):
        # Sums over rows and over each row as matrix-vector products, which
        # are several times faster than numpy's reductions at these sizes.
        g2 = g.reshape(-1, d)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        gx = g2 * xhat2
        beta._accumulate(ones @ g2)
        gamma._accumulate(ones @ gx)
        gamma_d = gamma.values * inv_d
        mean_g = g2 @ gamma_d
        np.multiply(xhat2, (gx @ gamma_d)[:, None], out=gx)
        gx += mean_g[:, None]
        dx = g2 * gamma.values
        dx -= gx
        dx /= std2
        x._accumulate(dx.reshape(x.shape))

    return Tensor._make(out_vals, (x, gamma, beta), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head attention over (N, T, D) projections: head h takes the
    columns [h E, (h + 1) E), E = D / heads, of q, k and v, mixes them as
    softmax(q k^T / sqrt(E)) v and writes the same columns of the output.
    One node: the heads are (N, heads, T, E) numpy views of the inputs and
    of the incoming gradient. Its values equal those of the numpy chain
    np.matmul, scale, a max-shifted softmax (exp, then divide by the row
    sum) and np.matmul on those views bit for bit. NaN scores raise
    NumericError."""
    if not q.shape == k.shape == v.shape or q.ndim != 3 or q.shape[-1] % heads:
        raise ShapeMismatchError(f"attention needs q, k and v of one shape (N, T, D) with D divisible by "
                                 f"{heads} heads: {q.shape}, {k.shape}, {v.shape}")
    n, t, d = q.shape
    scale = 1.0 / math.sqrt(d // heads)

    def split(x):
        return x.reshape(n, t, heads, d // heads).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n, t, d)

    q_vals, k_vals, v_vals = split(q.values), split(k.values), split(v.values)
    scores = np.matmul(q_vals, np.swapaxes(k_vals, -1, -2))
    scores *= scale
    probs = _shifted_rows(scores, "attention softmax")
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mixed = np.matmul(probs, v_vals)

    def bwd(g):
        g = split(g)
        v._accumulate(merge(np.matmul(np.swapaxes(probs, -1, -2), g)))
        # dscores = probs * (g v^T - rowsum(g v^T * probs)), and that row sum
        # is rowsum(g * mixed), a far smaller product, summed by a GEMV.
        g_out = (g * mixed).reshape(-1, g.shape[-1])
        ds = np.matmul(g, np.swapaxes(v_vals, -1, -2))
        ds -= (g_out @ np.ones(g.shape[-1], dtype=g_out.dtype)).reshape(ds.shape[:-1] + (1,))
        ds *= probs
        dq = np.matmul(ds, k_vals)
        dq *= scale
        dk = np.matmul(np.swapaxes(ds, -1, -2), q_vals)
        dk *= scale
        q._accumulate(merge(dq))
        k._accumulate(merge(dk))

    return Tensor._make(merge(mixed), (q, k, v), bwd)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Divide each row by max(||row||, eps)."""
    norms = np.sqrt((x.values * x.values).sum(axis=-1, keepdims=True))
    denom = np.maximum(norms, eps)
    out_vals = x.values / denom
    vals = x.values
    live = norms > eps

    def bwd(g):
        dot = (g * vals).sum(axis=-1, keepdims=True)
        x._accumulate(g / denom - np.where(live, vals * dot / (denom**3), 0.0))

    return Tensor._make(out_vals, (x,), bwd)


# -- backward pass ------------------------------------------------------------


def backward(root: Tensor):
    """Reverse-accumulate gradients from a scalar root through the graph
    recorded inside `enable_grad()`. BLAS runs at its load-time thread count
    here too (`parallel.graph_blas_threads`); no graph is recorded."""
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward root has no recorded graph: compute it inside enable_grad() "
                            "from tensors that require grad")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.values)
    with graph_blas_threads():
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


@dataclass
class GradCheckReport:
    op_name: str
    max_relative_error: float
    tolerance: float
    passed: bool


def grad_check(fn, inputs, tolerance=1e-4, op_name="fn", zero_floor=1e-7) -> GradCheckReport:
    """Compare backward gradients of fn(*inputs) against central differences.

    Inputs must be 64-bit tensors; finite differences use a per-element step
    h = 1e-6 * max(1, |x|). Relative error is |g_ad - g_fd| scaled by
    max(1e-8, |g_ad| + |g_fd|). Components where both gradients sit below
    `zero_floor` are counted as matching: central differences of a constant
    direction only return float cancellation noise (~1e-9), which would
    otherwise swamp the 1e-8 denominator floor for structurally zero
    gradients. Only the analytic pass records a graph.
    """
    for t in inputs:
        if t.dtype != np.float64:
            raise ContractError("grad_check requires 64-bit inputs")
        t.zero_grad()
        t.requires_grad = True
    with enable_grad():
        out = fn(*inputs)
    backward(out)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.values) for t in inputs]

    max_err = 0.0
    for t, g_ad in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        g_fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = float(fn(*inputs).values)
            flat[i] = orig - h
            f_minus = float(fn(*inputs).values)
            flat[i] = orig
            g_fd[i] = (f_plus - f_minus) / (2.0 * h)
        g_ad_flat = g_ad.reshape(-1)
        if not (np.all(np.isfinite(g_ad_flat)) and np.all(np.isfinite(g_fd))):
            raise NumericError(f"non-finite gradient in grad_check of {op_name}")
        denom = np.maximum(1e-8, np.abs(g_ad_flat) + np.abs(g_fd))
        rel = np.abs(g_ad_flat - g_fd) / denom
        rel[(np.abs(g_ad_flat) < zero_floor) & (np.abs(g_fd) < zero_floor)] = 0.0
        err = float(np.max(rel)) if flat.size else 0.0
        max_err = max(max_err, err)

    return GradCheckReport(op_name=op_name, max_relative_error=max_err, tolerance=tolerance, passed=max_err <= tolerance)
