import numpy as np
import pytest

from gair.geo import OutOfFootprintError
from gair.inr import (
    FThetaParams,
    bilinear_oracle,
    ensemble_weights,
    f_theta,
    inr_lookup,
    inr_query_batch,
    unfold3x3,
)
from gair.tensor import ContractError, Tensor, backward, enable_grad, grad_check


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def brute_force_unfold(grid: np.ndarray) -> np.ndarray:
    """Index-enumeration reference for the 3x3 unfolding."""
    P, _, D = grid.shape
    out = np.zeros((P, P, 9 * D), dtype=grid.dtype)
    for a in range(P):
        for b in range(P):
            for n, (di, dj) in enumerate(OFFSETS):
                ai, bj = a + di, b + dj
                if 0 <= ai < P and 0 <= bj < P:
                    out[a, b, n * D : (n + 1) * D] = grid[ai, bj]
    return out


def unfold_adjoint(g_unfolded: np.ndarray, d: int) -> np.ndarray:
    """Gradient of the 3x3 unfolding for the upstream gradient g_unfolded
    (N, P, P, 9D): block n of each cell's gradient goes to the neighbor at
    offset n, summed over the offsets in raster order."""
    n, P = g_unfolded.shape[:2]
    full = np.zeros((n, P + 2, P + 2, d), dtype=g_unfolded.dtype)
    for o, (di, dj) in enumerate(OFFSETS):
        full[:, 1 + di : 1 + di + P, 1 + dj : 1 + dj + P] += g_unfolded[..., o * d : (o + 1) * d]
    return full[:, 1:-1, 1:-1]


class TestUnfold:
    def test_constant_map_interior(self):
        c = np.array([1.5, -2.0])
        grid = np.tile(c, (4, 4, 1))
        out = unfold3x3(Tensor(grid)).values
        assert np.array_equal(out[1, 2], np.tile(c, 9))

    def test_single_cell_padding(self):
        c = np.array([3.0, 4.0])
        out = unfold3x3(Tensor(c.reshape(1, 1, 2))).values[0, 0]
        expected = np.zeros(18)
        expected[8:10] = c  # center block is the 5th of 9
        assert np.array_equal(out, expected)

    def test_p2_corner_zero_blocks(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(2, 2, 3))
        out = unfold3x3(Tensor(grid)).values
        ref = brute_force_unfold(grid)
        assert np.allclose(out, ref)
        # cell (0,0): NW, N, NE, W, SW neighbors are off-grid
        blocks = out[0, 0].reshape(9, 3)
        zero_blocks = [i for i in range(9) if np.all(blocks[i] == 0)]
        assert zero_blocks == [0, 1, 2, 3, 6]

    @pytest.mark.parametrize("P,D", [(1, 2), (3, 4), (5, 3)])
    def test_matches_enumeration_oracle(self, P, D):
        rng = np.random.default_rng(P * 10 + D)
        grid = rng.normal(size=(P, P, D))
        assert np.allclose(unfold3x3(Tensor(grid)).values, brute_force_unfold(grid))

    def test_batched(self):
        rng = np.random.default_rng(5)
        grids = rng.normal(size=(3, 4, 4, 2))
        out = unfold3x3(Tensor(grids)).values
        for i in range(3):
            assert np.allclose(out[i], brute_force_unfold(grids[i]))


class TestEnsembleWeights:
    def test_cell_center_is_uniform(self):
        # center of the 2x2 patch-center square for P=2 is the origin
        geom = ensemble_weights(np.array([[0.0, 0.0]]), P=2)
        assert np.allclose(geom.weights, 0.25)

    def test_query_at_corner_collapses(self):
        # patch center (0,0) for P=4 sits at (-0.75, 0.75)
        geom = ensemble_weights(np.array([[-0.75, 0.75]]), P=4)
        assert np.allclose(sorted(geom.weights[0]), [0, 0, 0, 1], atol=1e-12)
        k = int(np.argmax(geom.weights[0]))
        assert geom.rows[0, k] == 0 and geom.cols[0, k] == 0

    def test_fractional_position_areas(self):
        # P=2: cell spans u,v in [-0.5, 0.5]; fractions (tu, tv) = (0.25, 0.75)
        u = -0.5 + 0.25 * 1.0
        v = 0.5 - 0.75 * 1.0
        geom = ensemble_weights(np.array([[u, v]]), P=2)
        w = dict(zip(["nw", "ne", "sw", "se"], geom.weights[0]))
        assert abs(w["nw"] - 0.1875) < 1e-12
        assert abs(w["ne"] - 0.0625) < 1e-12
        assert abs(w["sw"] - 0.5625) < 1e-12
        assert abs(w["se"] - 0.1875) < 1e-12

    def test_partition_of_unity(self):
        rng = np.random.default_rng(2)
        for P in (2, 4, 8):
            q = rng.uniform(-1, 1, size=(10_000, 2))
            geom = ensemble_weights(q, P)
            assert np.all(np.abs(geom.weights.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(geom.weights >= 0) and np.all(geom.weights <= 1)

    def test_margin_clamped_with_flag(self):
        geom = ensemble_weights(np.array([[0.99, 0.0]]), P=4)
        assert geom.clamped[0]
        geom2 = ensemble_weights(np.array([[0.5, 0.0]]), P=4)
        assert not geom2.clamped[0]

    def test_outside_footprint_raises(self):
        fm = Tensor(np.ones((1, 3, 3, 2)))
        for bad in ([1.2, 0.0], [np.nan, 0.0], [0.0, -np.inf]):
            with pytest.raises(OutOfFootprintError, match=f"u={bad[0]}, v={bad[1]}"):
                ensemble_weights(np.array([[0.1, 0.2], bad]), P=4)
            with pytest.raises(OutOfFootprintError):
                inr_query_batch(FThetaParams.passthrough(2), unfold3x3(fm), np.array([bad]))
            with pytest.raises(OutOfFootprintError):
                inr_lookup(FThetaParams.passthrough(2), fm, np.array([bad]))


class TestFTheta:
    def test_passthrough_returns_center_latent(self):
        rng = np.random.default_rng(3)
        d = 4
        z = rng.normal(size=(2, 9 * d))
        params = FThetaParams.passthrough(d)
        out = f_theta(params, Tensor(z))
        assert np.allclose(out.values, z[:, 4 * d : 5 * d])

    def test_zero_weights_bias_only(self):
        d = 3
        b = np.array([1.0, -2.0, 0.5])
        params = FThetaParams(Tensor(np.zeros((9 * d, d))), Tensor(b))
        out = f_theta(params, Tensor(np.ones((5, 9 * d))))
        assert np.allclose(out.values, np.tile(b, (5, 1)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        d = 3
        w, b = t64(rng.normal(size=(9 * d, d))), t64(rng.normal(size=(d,)))
        z = t64(rng.normal(size=(2, 9 * d)))
        def loss(W, B, Z):
            out = f_theta(FThetaParams(W, B), Z)
            return (out * out).sum()

        report = grad_check(loss, [w, b, z], tolerance=1e-4)
        assert report.passed

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_keeps_the_full_draw(self, dtype):
        """The initial weight is the first 9D rows of a (9D+2, D) draw at scale
        1/sqrt(9D+2), and the generator ends where that full draw leaves it,
        so every model seed keeps the weights and later draws it always had."""
        d = 5
        rng, ref = np.random.default_rng(21), np.random.default_rng(21)
        params = FThetaParams.init(d, rng, dtype=dtype)
        full = ref.normal(0.0, 1.0 / np.sqrt(9 * d + 2), size=(9 * d + 2, d))
        assert params.weight.shape == (9 * d, d) and params.weight.dtype == dtype
        assert np.array_equal(params.weight.values, full[: 9 * d].astype(dtype))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestInrQuery:
    def test_constant_map_any_query(self):
        d = 4
        c = np.array([1.0, 2.0, -1.0, 0.5])
        grid = np.tile(c, (4, 4, 1))
        um = unfold3x3(Tensor(grid.reshape(1, 4, 4, d)))
        for q in ([0.0, 0.0], [0.3, -0.6], [0.7, 0.7]):
            out = inr_query_batch(FThetaParams.passthrough(d), um, np.array([q]))
            assert np.allclose(out.values[0], c / np.linalg.norm(c), atol=1e-12)

    @pytest.mark.parametrize("P", [2, 4, 8])
    @pytest.mark.parametrize("D", [4, 64])
    def test_bilinear_reduction(self, P, D):
        rng = np.random.default_rng(P + D)
        grid = rng.normal(size=(P, P, D))
        queries = rng.uniform(-1, 1, size=(50, 2))
        um = unfold3x3(Tensor(np.repeat(grid[None], 50, axis=0)))
        out = inr_query_batch(FThetaParams.passthrough(D), um, queries, normalize=False).values
        oracle = bilinear_oracle(grid, queries)
        assert np.max(np.abs(out - oracle)) < 1e-6

    def test_query_at_patch_center(self):
        rng = np.random.default_rng(9)
        P, d = 4, 3
        grid = rng.normal(size=(P, P, d))
        um = unfold3x3(Tensor(grid[None]))
        # center of patch (1, 2)
        q = np.array([[-1 + (2 * 2 + 1) / P, 1 - (2 * 1 + 1) / P]])
        out = inr_query_batch(FThetaParams.passthrough(d), um, q, normalize=False).values[0]
        assert np.allclose(out, grid[1, 2], atol=1e-12)
        assert np.allclose(out, bilinear_oracle(grid, q)[0], atol=1e-12)

    def test_continuity_across_cell_boundaries(self):
        rng = np.random.default_rng(10)
        P, d = 4, 8
        grid = rng.normal(size=(P, P, d))
        params = FThetaParams.init(d, rng, dtype=np.float64)
        um = unfold3x3(Tensor(grid[None]))
        # boundary between patch-center columns sits at u = 0 for P=4
        max_jump = 0.0
        max_jump_nearest = 0.0
        eps = 1e-6
        for _ in range(1000):
            v = rng.uniform(-0.7, 0.7)
            boundary = rng.choice([-0.5, 0.0, 0.5])
            q1 = np.array([[boundary - eps, v]])
            q2 = np.array([[boundary + eps, v]])
            z1 = inr_query_batch(params, um, q1).values
            z2 = inr_query_batch(params, um, q2).values
            max_jump = max(max_jump, np.max(np.abs(z1 - z2)))
            n1 = _nearest_cell_only(params, um.values[0], q1[0])
            n2 = _nearest_cell_only(params, um.values[0], q2[0])
            max_jump_nearest = max(max_jump_nearest, np.max(np.abs(n1 - n2)))
        assert max_jump < 1e-4
        assert max_jump_nearest > 1e-4  # negative control

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_map_serves_every_query(self, dtype):
        """A single map read by n queries gives what the map repeated n times gives."""
        rng = np.random.default_rng(18)
        P, d, n = 5, 6, 300
        um = unfold3x3(Tensor(rng.normal(size=(1, P, P, d)).astype(dtype)))
        params = FThetaParams.init(d, rng, dtype=dtype)
        params.bias = Tensor(rng.normal(size=d).astype(dtype))
        queries = rng.uniform(-1, 1, size=(n, 2))
        shared = inr_query_batch(params, um, queries, normalize=False).values
        repeated = inr_query_batch(params, Tensor(np.repeat(um.values, n, axis=0)), queries, normalize=False).values
        assert shared.shape == (n, d) and shared.dtype == dtype
        assert np.max(np.abs(shared - repeated)) < 1e-6

    @pytest.mark.parametrize("maps", [2, 4])
    def test_map_count_neither_one_nor_query_count_raises(self, maps):
        um = unfold3x3(Tensor(np.ones((maps, 4, 4, 2))))
        with pytest.raises(ValueError):
            inr_query_batch(FThetaParams.passthrough(2), um, np.zeros((3, 2)))

    def test_differentiability_end_to_end(self):
        rng = np.random.default_rng(11)
        d = 3
        queries = rng.uniform(-0.6, 0.6, size=(2, 2))
        fm = t64(rng.normal(size=(2, 4, 4, d)))
        w, b = t64(rng.normal(size=(9 * d, d))), t64(rng.normal(size=(d,)))

        def loss(W, B, FM):
            return inr_lookup(FThetaParams(W, B), FM, queries).sum()

        assert grad_check(loss, [w, b, fm], tolerance=1e-4).passed

    def test_single_sample_wrapper(self):
        rng = np.random.default_rng(12)
        d = 2
        grid = rng.normal(size=(3, 3, d))
        um = unfold3x3(Tensor(grid[None]))
        out = inr_query_batch(FThetaParams.passthrough(d), um, np.array([[0.1, -0.2]]), normalize=False)
        oracle = bilinear_oracle(grid, np.array([[0.1, -0.2]]))[0]
        assert np.allclose(out.values[0], oracle, atol=1e-10)


def four_term_ensemble(params, unfolded, queries):
    """Reference: sum_k w_k f_theta(z_k), each corner decoded on its own."""
    geom = ensemble_weights(queries, unfolded.shape[1])
    dtype = unfolded.dtype
    n = np.arange(len(queries))
    out = 0.0
    for k in range(4):
        z_k = Tensor(unfolded.values[n, geom.rows[:, k], geom.cols[:, k]])
        pred = f_theta(params, z_k).values
        out = out + pred * geom.weights[:, k : k + 1].astype(dtype)
    return out


def chain_ensemble(unfolded, weight, bias, queries, g):
    """The unfused lookup in numpy, as gather, blend-weights product, sum over
    corners, matmul and bias add computed it: the value and the gradients of
    (unfolded, weight, bias) for the upstream gradient g."""
    geom = ensemble_weights(queries, unfolded.shape[1])
    idx = np.arange(len(unfolded)).reshape(-1, 1)
    corners = unfolded[idx, geom.rows, geom.cols, :]
    w = geom.weights[:, :, None].astype(unfolded.dtype)
    blended = (corners * w).sum(axis=1)
    out = blended @ weight + bias
    d_corners = np.broadcast_to(np.expand_dims(g @ weight.T, 1), corners.shape).copy() * w
    d_unfolded = np.zeros_like(unfolded)
    np.add.at(d_unfolded, (idx, geom.rows, geom.cols), d_corners)
    return out, d_unfolded, blended.T @ g, g.sum(axis=0)


class TestClosedFormEnsemble:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_four_term_reference(self, dtype, atol):
        rng = np.random.default_rng(13)
        P, d, n = 5, 6, 400
        fm = Tensor(rng.normal(size=(n, P, P, d)).astype(dtype))
        params = FThetaParams.init(d, rng, dtype=dtype)
        params.bias = Tensor(rng.normal(size=d).astype(dtype))
        queries = rng.uniform(-1, 1, size=(n, 2))  # about a third lie in the clamped margin
        assert ensemble_weights(queries, P).clamped.sum() > n // 5
        unfolded = unfold3x3(fm)
        out = inr_query_batch(params, unfolded, queries, normalize=False)
        assert out.dtype == dtype
        assert np.max(np.abs(out.values - four_term_ensemble(params, unfolded, queries))) < atol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_equals_unfused_chain(self, dtype):
        """inr_lookup's value and its gradients for (fm, W, b) equal, bit for
        bit, the unfused chain on the unfolded map composed with the
        unfolding's adjoint, at P = 4, at P = 2 and on a batch of one."""
        rng = np.random.default_rng(15)
        for P, d, n in [(4, 5, 200), (2, 3, 40), (3, 4, 1)]:
            fm = Tensor(rng.normal(size=(n, P, P, d)).astype(dtype), requires_grad=True)
            weight = Tensor(rng.normal(size=(9 * d, d)).astype(dtype), requires_grad=True)
            bias = Tensor(rng.normal(size=d).astype(dtype), requires_grad=True)
            queries = rng.uniform(-1, 1, size=(n, 2))
            queries[0] = [0.97, -0.99]  # in the clamped margin at every P
            assert ensemble_weights(queries, P).clamped.sum() >= max(1, n // 5)
            g = rng.normal(size=(n, d)).astype(dtype)
            with enable_grad():
                out = inr_lookup(FThetaParams(weight, bias), fm, queries, normalize=False)
                backward((out * Tensor(g)).sum())
            assert out._parents == (fm, weight, bias)
            unfolded = np.stack([brute_force_unfold(grid) for grid in fm.values])
            value, d_unfolded, d_weight, d_bias = chain_ensemble(unfolded, weight.values, bias.values, queries, g)
            expected = [value, unfold_adjoint(d_unfolded, d), d_weight, d_bias]
            for got, want in zip([out.values, fm.grad, weight.grad, bias.grad], expected):
                assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_lookup_agrees_with_forward_only_pair(self, dtype, atol, normalize):
        """inr_lookup blends then decodes, the pair decodes every cell then
        blends: the same closed form in two summation orders."""
        rng = np.random.default_rng(16)
        P, d, n = 5, 6, 300
        fm = Tensor(rng.normal(size=(n, P, P, d)).astype(dtype))
        params = FThetaParams.init(d, rng, dtype=dtype)
        params.bias = Tensor(rng.normal(size=d).astype(dtype))
        queries = rng.uniform(-1, 1, size=(n, 2))
        assert ensemble_weights(queries, P).clamped.sum() > n // 5
        want = inr_query_batch(params, unfold3x3(fm), queries, normalize=normalize).values
        got = inr_lookup(params, fm, queries, normalize=normalize).values
        assert got.dtype == want.dtype == dtype
        assert np.max(np.abs(got - want)) < atol

    def test_every_decoder_weight_row_gets_a_gradient(self):
        rng = np.random.default_rng(14)
        d = 4
        params = FThetaParams.init(d, rng, dtype=np.float64)
        fm = Tensor(rng.normal(size=(3, 4, 4, d)), requires_grad=True)
        with enable_grad():
            out = inr_lookup(params, fm, rng.uniform(-1, 1, size=(3, 2)))
            backward((out * Tensor(rng.normal(size=out.shape))).sum())
        assert params.weight.grad.shape == (9 * d, d)
        assert np.all(np.abs(params.weight.grad).sum(axis=1) > 0.0)


class TestForwardOnlyPair:
    """unfold3x3 and inr_query_batch record no backward: inside enable_grad()
    they refuse an input that requires grad instead of stopping its gradient."""

    def setup_method(self):
        rng = np.random.default_rng(17)
        self.params = FThetaParams.init(3, rng, dtype=np.float64)
        self.fm = Tensor(rng.normal(size=(2, 4, 4, 3)), requires_grad=True)
        self.queries = rng.uniform(-0.5, 0.5, size=(2, 2))

    def test_unfold_refuses_a_tracked_input(self):
        with enable_grad(), pytest.raises(ContractError, match="forward-only"):
            unfold3x3(self.fm)

    def test_query_batch_refuses_tracked_parameters(self):
        unfolded = unfold3x3(Tensor(self.fm.values))
        with enable_grad(), pytest.raises(ContractError, match="forward-only"):
            inr_query_batch(self.params, unfolded, self.queries)

    def test_pair_works_outside_enable_grad_and_on_constants(self):
        want = inr_query_batch(self.params, unfold3x3(self.fm), self.queries).values
        constants = FThetaParams(Tensor(self.params.weight.values), Tensor(self.params.bias.values))
        with enable_grad():
            out = inr_query_batch(constants, unfold3x3(Tensor(self.fm.values)), self.queries)
        assert not out.requires_grad and np.array_equal(out.values, want)


def _nearest_cell_only(params, um_grid, q):
    """Degenerate baseline: decode only the single nearest patch latent."""
    from gair.inr import ensemble_weights as ew
    from gair.tensor import Tensor as T

    P = um_grid.shape[0]
    geom = ew(np.array([q]), P)
    k = int(np.argmax(geom.weights[0]))
    z = um_grid[geom.rows[0, k], geom.cols[0, k]][None]
    out = f_theta(params, T(z)).values
    return out / max(np.linalg.norm(out), 1e-12)
