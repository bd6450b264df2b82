"""Tour of the tensor engine: build a tiny classifier loss, differentiate
it, and validate every gradient against finite differences.

Run:  python3 demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from gair.tensor import Tensor, backward, cross_entropy, enable_grad, grad_check, l2_normalize_rows, matmul

rng = np.random.default_rng(0)

# A Tensor wraps a dense numpy array.
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
labels = np.array([0, 1, 1, 0])

# Forward: a little network ending in a softmax cross-entropy, the loss
# behind both InfoNCE objectives. (The classification probe trains on it
# too, but takes its closed-form gradient without a graph.) Inside
# enable_grad() each result remembers how it was computed; outside, the
# same ops give the same values and keep no graph, which is all an
# inference pass needs.
with enable_grad():
    logits = matmul(x, w).gelu()
    loss = cross_entropy(logits, labels)
print("loss =", float(loss.values), "| parents recorded:", len(loss._parents))
print("the same op outside enable_grad(), parents recorded:", len(cross_entropy(logits, labels)._parents))

# Reverse-mode sweep: every requires_grad leaf receives d loss / d leaf.
# cross_entropy's own backward is the closed form (softmax - onehot) / n.
backward(loss)
print("dloss/dlogits:\n", logits.grad)
print("dloss/dw:\n", w.grad)

# The same machinery audited against central differences. grad_check
# records the graph for its analytic pass only, then perturbs each input
# component by h = 1e-6 * max(1, |x|) and compares.
report = grad_check(
    lambda a, b: cross_entropy(matmul(a, b).gelu() * l2_normalize_rows(matmul(a, b)), labels),
    [Tensor(rng.normal(size=(4, 3)), requires_grad=True),
     Tensor(rng.normal(size=(3, 2)), requires_grad=True)],
    tolerance=1e-4,
)
print(f"grad check: max relative error {report.max_relative_error:.2e} "
      f"(tolerance {report.tolerance:.0e}) -> {'pass' if report.passed else 'FAIL'}")

# The full per-operation audit that `gair gradcheck` runs:
from gair.gradaudit import run_audit

for r in run_audit(tolerance=1e-4):
    print(f"  {r.op_name:<24} {r.max_relative_error:.2e}  {'pass' if r.passed else 'FAIL'}")
