"""How a discrete feature grid becomes a continuous function of location.

A remote-sensing chip is encoded into a P x P grid of patch latents. To
compare it against a street-view photo taken anywhere inside the footprint,
the grid is queried at arbitrary local coordinates: the four surrounding
patch latents (each with its 3x3 neighborhood folded in) are decoded and
blended with bilinear area weights.

Run:  python3 demos/02_continuous_feature_lookup.py
"""

import numpy as np

from gair.inr import FThetaParams, bilinear_oracle, ensemble_weights, inr_lookup, inr_query_batch, unfold3x3
from gair.tensor import Tensor

rng = np.random.default_rng(0)
P, D = 4, 8
grid = rng.normal(size=(P, P, D))

# Step 1: every cell gets its 3x3 neighborhood concatenated (zero padded at
# the borders), so the decoder sees local context, not just one latent.
unfolded = unfold3x3(Tensor(grid[None]))
print("grid", grid.shape, "-> unfolded", unfolded.shape)

# Step 2: for a query point, find the four enclosing patch centers and
# their area weights. The weights always sum to one.
q = np.array([[0.31, -0.12]])
geom = ensemble_weights(q, P)
print("cells:", list(zip(geom.rows[0], geom.cols[0])))
print("weights:", np.round(geom.weights[0], 4), "sum =", geom.weights[0].sum())

# Step 3: blend and decode. The decoder is affine, so decoding each corner
# and blending the four outputs equals blending the four latents and decoding
# once. It reads no query-to-corner offset: the weights average the corner
# offsets to zero, so an affine offset term would cancel. The two lookups
# take the two orders. inr_query_batch decodes every cell of the unfolded
# map once and then blends each query's four decoded corners, forward only:
# that pays off when many queries share one map, as a heatmap's do.
# Training calls inr_lookup instead: one query per map, so it gathers the
# 3x3 neighborhoods of just the four corner cells straight from the grid,
# blends them and decodes once, differentiably. The two agree to rounding.
# The passthrough decoder copies the center block exactly, so with it they
# agree bit for bit, and the whole pipeline collapses to plain bilinear
# interpolation, which we can check directly.
z = inr_query_batch(FThetaParams.passthrough(D), unfolded, q, normalize=False)
ref = bilinear_oracle(grid, q)
print("max |inr - bilinear oracle| =", np.max(np.abs(z.values - ref)))
z_direct = inr_lookup(FThetaParams.passthrough(D), Tensor(grid[None]), q, normalize=False)
print("inr_lookup equals the unfolded-map lookup:", np.array_equal(z_direct.values, z.values))

# A trained decoder is an affine map over the blended neighborhood, so the
# output stays continuous across cell boundaries:
params = FThetaParams.init(D, rng, dtype=np.float64)
eps = 1e-6
for boundary in (-0.5, 0.0, 0.5):
    left = inr_query_batch(params, unfolded, np.array([[boundary - eps, 0.2]])).values
    right = inr_query_batch(params, unfolded, np.array([[boundary + eps, 0.2]])).values
    print(f"jump across u={boundary:+.1f}: {np.max(np.abs(left - right)):.2e}")
