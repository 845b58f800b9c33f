import numpy as np
import pytest

from kanmark.kan import KanLayer, KanModel, edge_importances, prune_kan, zero_edges
from kanmark.numeric import (ROW_CHUNK, NonFiniteError, ShapeError, keep_masks,
                             mse_core, real_targets, sigmoid, silu_slope)
from kanmark.spline import basis_and_slopes, build_grid

from oracles import (assert_grads_close, central_diff, edge_activation_ref,
                     edge_importances_tensor_ref, kan_forward_ref, layer_forward_ref,
                     silu_ref)


def random_layer(in_dim, out_dim, seed=0, grid=None):
    rng = np.random.default_rng(seed)
    grid = grid or build_grid()
    layer = KanLayer.create(in_dim, out_dim, grid, rng)
    layer.w_b[:] = rng.normal(size=layer.w_b.shape)
    layer.w_s[:] = rng.normal(size=layer.w_s.shape)
    return layer


def layer_grads(layer, flat):
    """(d_coeffs, d_w_b, d_w_s) of a one-layer flat gradient: the layout
    of ``params`` is coeffs, then w_b, then w_s, each row-major."""
    n_c, n = layer.coeffs.size, layer.w_b.size
    return (flat[:n_c].reshape(layer.coeffs.shape),
            flat[n_c:n_c + n].reshape(layer.w_b.shape),
            flat[n_c + n:].reshape(layer.w_s.shape))


def prune_edges(layer, rows, cols):
    """Prune edges (rows[k], cols[k]) as prune_kan does: zero their coeffs,
    w_b and w_s."""
    for a in (layer.coeffs, layer.w_b, layer.w_s):
        a[rows, cols] = 0.0


def pruned_edges(layer):
    """Boolean (out_dim, in_dim) array: True where every parameter of the
    edge is zero."""
    return ((layer.w_b == 0.0) & (layer.w_s == 0.0)
            & np.all(layer.coeffs == 0.0, axis=-1))


def random_model(widths, seed=0):
    model = KanModel.create(widths, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers:
        layer.w_b[:] = rng.normal(scale=0.5, size=layer.w_b.shape)
        layer.w_s[:] = rng.normal(scale=0.5, size=layer.w_s.shape)
    return model


def edge_activations(layer, j, i, x):
    """Edge (j, i)'s activation on each row of the batch x: output j of a
    copy of the layer with every other edge pruned, on rows prepared a
    chunk at a time."""
    keep = np.zeros(layer.w_b.shape, dtype=bool)
    keep[j, i] = True
    single, = zero_edges(KanModel([layer.copy()]), [keep]).layers
    return single.apply(single.prepare_rows(x))[0][:, j]


def edge_activation(layer, j, i, x):
    """Edge (j, i)'s activation at the scalar x, through the batch path."""
    return edge_activations(layer, j, i, np.full((1, layer.in_dim), x))[0]


class TestEdgeActivation:
    def test_all_zero_parameters(self):
        layer = random_layer(2, 2, seed=1)
        layer.coeffs[:] = 0.0
        layer.w_b[:] = 0.0
        layer.w_s[:] = 0.0
        for x in (-1.0, 0.0, 0.3, 2.0):
            assert edge_activation(layer, 0, 1, x) == 0.0

    def test_reduces_to_silu(self):
        layer = random_layer(1, 1, seed=2)
        layer.w_b[:] = 1.0
        layer.w_s[:] = 0.0
        for x in (-0.5, 0.1, 0.9):
            assert edge_activation(layer, 0, 0, x) == pytest.approx(silu_ref(x), rel=1e-12)

    def test_matches_scalar_oracle(self):
        layer = random_layer(3, 2, seed=3)
        for j in range(2):
            for i in range(3):
                got = edge_activation(layer, j, i, 0.3)
                assert got == pytest.approx(edge_activation_ref(layer, j, i, 0.3),
                                            abs=1e-12)

    def test_batch_across_chunks_matches_scalar_oracle(self):
        # Two full row chunks of prepared rows and a short third.
        layer = random_layer(3, 2, seed=4)
        prune_edges(layer, 1, 2)
        x = np.random.default_rng(4).uniform(-1.5, 1.5, size=(2 * ROW_CHUNK + 5, 3))
        for j in range(2):
            for i in range(3):
                ref = [edge_activation_ref(layer, j, i, row[i]) for row in x]
                assert np.max(np.abs(edge_activations(layer, j, i, x) - ref)) < 1e-12


class TestLayerForward:
    def test_zero_parameters_give_zero(self):
        layer = random_layer(3, 2, seed=5)
        layer.coeffs[:] = 0.0
        layer.w_b[:] = 0.0
        layer.w_s[:] = 0.0
        out, _ = layer.forward(np.random.default_rng(0).normal(size=(4, 3)))
        assert np.all(out == 0.0)

    def test_one_by_one_silu(self):
        layer = random_layer(1, 1, seed=6)
        layer.w_b[:] = 1.0
        layer.w_s[:] = 0.0
        out, _ = layer.forward([[1.0]])
        assert out[0, 0] == pytest.approx(0.7310586, abs=1e-7)
        assert out[0, 0] == pytest.approx(silu_ref(1.0), rel=1e-12)

    def test_matches_loop_oracle(self):
        layer = random_layer(3, 2, seed=7)
        x = np.random.default_rng(1).uniform(-1.5, 1.5, size=(4, 3))
        out, _ = layer.forward(x)
        assert np.max(np.abs(out - layer_forward_ref(layer, x))) < 1e-12

    def test_shape_mismatch(self):
        layer = random_layer(3, 2, seed=8)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, 2)))

    def test_constructor_rejects_w_s_of_wrong_shape(self):
        layer = random_layer(3, 2, seed=8)
        with pytest.raises(ShapeError, match="w_b / w_s"):
            KanLayer(layer.grid, layer.coeffs, layer.w_b, layer.w_s.T)

    def test_create_rejects_unaddressable_size_before_allocating(self):
        # 2**30 x 2**30 edges of 8 coefficients are 2**66 bytes, past numpy's
        # size limit, where numpy itself would raise ValueError.
        with pytest.raises(MemoryError, match="exceed the address space"):
            KanLayer.create(2**30, 2**30, build_grid(), np.random.default_rng(0))

    def test_cache_holds_no_per_edge_tensor(self):
        layer = random_layer(4, 3, seed=22)
        _, cache = layer.forward(np.random.default_rng(14).normal(size=(5, 4)))
        assert all(np.ndim(v) <= 2 for v in cache.values())


class TestPrepareRows:
    @pytest.mark.parametrize("degree", range(5))
    def test_matches_prepare_byte_for_byte(self, degree):
        # Two chunks and a short third, with points at every knot, at both
        # domain ends and outside them.
        grid = build_grid(degree, 4, -2.0, 3.0)
        layer = random_layer(3, 2, seed=31, grid=grid)
        x = np.random.default_rng(degree).uniform(-2.5, 3.5, size=(2 * ROW_CHUNK + 5, 3))
        x[::7, 0] = grid.t_max
        x[3::11, 1] = grid.t_min
        x[:grid.knots.size, 2] = grid.knots
        whole, rows = layer.prepare(x), layer.prepare_rows(x)
        assert set(rows) == {"s", "b"}
        for key, a in rows.items():
            assert a.shape == whole[key].shape and a.tobytes() == whole[key].tobytes()

    def test_zero_rows_of_the_right_width(self):
        layer, x = random_layer(3, 2, seed=33), np.zeros((0, 3))
        whole, rows = layer.prepare(x), layer.prepare_rows(x)
        for key, a in rows.items():
            assert a.shape == whole[key].shape and a.tobytes() == whole[key].tobytes()
        assert rows["b"].shape == (0, 3 * layer.grid.basis_count)
        assert layer.forward(x)[0].shape == (0, 2)
        assert KanModel.create([3, 4, 2], seed=0).predict(x).shape == (0, 2)

    @pytest.mark.parametrize("method", ["prepare_rows", "forward"])
    def test_empty_batch_of_wrong_width_rejected(self, method):
        # prepare_rows runs no chunk on an empty batch, so checks its width first.
        with pytest.raises(ShapeError, match="expects 3 inputs"):
            getattr(random_layer(3, 2, seed=32), method)(np.zeros((0, 5)))

    @pytest.mark.parametrize("degree", range(5))
    def test_basis_rows_contiguous_and_prepare_views_them(self, degree):
        grid = build_grid(degree, 4)
        x = np.linspace(-1.2, 1.2, 30).reshape(10, 3)
        x[0, 0] = grid.t_max
        b, slopes = basis_and_slopes(grid, x)
        assert b.flags.c_contiguous and slopes().flags.c_contiguous
        prepared_b = random_layer(3, 2, grid=grid).prepare(x)["b"]
        assert prepared_b.flags.c_contiguous and prepared_b.base is not None


class TestModelForward:
    def test_single_layer_composition(self):
        model = random_model([3, 2], seed=9)
        x = np.random.default_rng(2).normal(size=(5, 3))
        out, layer0 = model.forward(x)
        direct, _ = model.layers[0].forward(x)
        assert np.array_equal(out, direct)
        assert np.array_equal(layer0, direct)

    def test_zeroed_second_layer(self):
        model = random_model([3, 4, 2], seed=10)
        model.layers[1].coeffs[:] = 0.0
        model.layers[1].w_b[:] = 0.0
        model.layers[1].w_s[:] = 0.0
        x = np.random.default_rng(3).normal(size=(4, 3))
        out, layer0 = model.forward(x)
        assert np.all(out == 0.0)
        ref, _ = model.layers[0].forward(x)
        assert np.array_equal(layer0, ref)

    def test_matches_sequential_oracle(self):
        model = random_model([2, 3, 2], seed=11)
        x = np.random.default_rng(4).uniform(-1, 1, size=(6, 2))
        out, layer0 = model.forward(x)
        ref_out, ref_layer0 = kan_forward_ref(model, x)
        assert np.max(np.abs(out - ref_out)) < 1e-12
        assert np.max(np.abs(layer0 - ref_layer0)) < 1e-12

    def test_forward_is_deterministic(self):
        model = random_model([4, 5, 3], seed=12)
        x = np.random.default_rng(5).normal(size=(7, 4))
        a, la = model.forward(x)
        b, lb = model.forward(x)
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_layer0_capture_is_bit_exact(self):
        model = random_model([3, 4, 2], seed=13)
        x = np.random.default_rng(6).normal(size=(5, 3))
        _, layer0 = model.forward(x)
        independent, _ = model.layers[0].forward(x)
        assert np.array_equal(layer0, independent)

    def test_widths(self):
        assert KanModel.create([4, 5, 3]).widths == [4, 5, 3]

    @pytest.mark.parametrize("widths", [[3], []])
    def test_create_without_a_layer_rejected(self, widths):
        with pytest.raises(ValueError, match="at least one layer"):
            KanModel.create(widths)

    def test_input_width_mismatch(self):
        model = random_model([3, 2], seed=14)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 5)))

    def test_non_finite_input_rejected(self):
        # layer 0 checks the model input; no model-level check runs before it
        model = random_model([2, 3, 1], seed=15)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="layer input"):
                model.forward_with_cache(np.array([[0.1, bad]]))


class TestModelBackward:
    def test_zero_upstream_grad(self):
        model = random_model([2, 3, 2], seed=15)
        x = np.random.default_rng(7).uniform(-1, 1, size=(4, 2))
        out, caches = model.forward_with_cache(x)
        assert np.all(model.backward(caches, np.zeros_like(out)) == 0.0)

    def test_w_b_grad_linearity(self):
        # d(sum of outputs)/d w_b[j,i] = sum_b silu(x[b,i]) for a single layer
        layer = random_layer(3, 2, seed=16)
        x = np.random.default_rng(8).uniform(-1, 1, size=(5, 3))
        out, cache = layer.forward(x)
        grads, _ = layer.backward(cache, np.ones_like(out))
        g_wb = layer_grads(layer, grads)[1]
        expected = np.vectorize(silu_ref)(x).sum(axis=0)
        for j in range(2):
            for i in range(3):
                assert g_wb[j, i] == pytest.approx(expected[i], rel=1e-12)

    def test_gradcheck_small_model(self):
        model = random_model([2, 3, 2], seed=17)
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.9, 0.9, size=(4, 2))
        target = real_targets(rng.normal(size=(4, 2)), 4, 2)

        out, caches = model.forward_with_cache(x)
        _, g = mse_core(out, target)
        analytic = model.backward(caches, g)

        def loss():
            return mse_core(model.forward(x)[0], target)[0]

        numeric = central_diff(loss, [model.params], h=1e-5)
        assert_grads_close([analytic], numeric, rel_tol=1e-4)

    def test_gradcheck_wider_model(self):
        model = random_model([4, 5, 3], seed=18)
        rng = np.random.default_rng(10)
        x = rng.uniform(-0.9, 0.9, size=(3, 4))
        target = real_targets(rng.normal(size=(3, 3)), 3, 3)

        out, caches = model.forward_with_cache(x)
        _, g = mse_core(out, target)
        analytic = model.backward(caches, g)

        def loss():
            return mse_core(model.forward(x)[0], target)[0]

        numeric = central_diff(loss, [model.params], h=1e-5)
        assert_grads_close([analytic], numeric, rel_tol=1e-4)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_input_grad_matches_uncached_reference(self, degree):
        # backward reads sigmoid and the degree k-1 local B-splines from the
        # forward cache; the result must equal recomputing them from x.
        grid = build_grid(degree, 4, -1.0, 1.0)
        layer = random_layer(3, 2, seed=23, grid=grid)
        prune_edges(layer, 1, 0)
        rng = np.random.default_rng(15)
        points = np.concatenate([grid.knots, [-1.0, 1.0, -3.0, 2.5, -1.0 - 1e-12],
                                 rng.uniform(-1.5, 1.5, size=7)])
        x = np.resize(points, (len(points) // 3 + 1, 3))
        out, cache = layer.forward(x)
        gy = rng.normal(size=out.shape)
        _, gx = layer.backward(cache, gy)
        w = layer.w_s[:, :, None] * layer.coeffs
        db = basis_and_slopes(grid, x.ravel())[1]()
        ref = silu_slope(x, sigmoid(x)) * (gy @ layer.w_b) \
            + ((gy @ w.reshape(2, -1)).reshape(db.shape) * db).sum(axis=-1).reshape(x.shape)
        assert np.array_equal(gx, ref)

    def test_stale_cache_rejected(self):
        model = random_model([2, 2], seed=20)
        x = np.random.default_rng(12).normal(size=(4, 2))
        _, caches = model.forward_with_cache(x)
        with pytest.raises(ShapeError):
            model.backward(caches, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            model.backward(None, np.zeros((4, 2)))

    def test_layer_without_cache_rejected(self):
        layer = random_layer(2, 3, seed=20)
        with pytest.raises(ValueError, match="missing forward cache"):
            layer.backward(None, np.zeros((4, 3)))


def assert_importances_match(layer, h, imp):
    """imp[j, i] is the mean |activation| of edge (j, i) over the rows of the
    layer input h, by the scalar oracle, within 1e-12."""
    for j in range(layer.out_dim):
        for i in range(layer.in_dim):
            ref = np.mean([abs(edge_activation_ref(layer, j, i, row[i])) for row in h])
            assert imp[j, i] == pytest.approx(ref, abs=1e-12)


class TestEdgeImportance:
    def test_zeroed_edge_importance(self):
        model = random_model([2, 2], seed=21)
        prune_edges(model.layers[0], 0, 1)
        imp, = edge_importances(model, np.random.default_rng(0).normal(size=(8, 2)))
        assert imp[0, 1] == 0.0

    def test_silu_edge_on_unit_inputs(self):
        model = KanModel.create([1, 1], seed=22)
        model.layers[0].w_b[:] = 1.0
        model.layers[0].w_s[:] = 0.0
        imp, = edge_importances(model, np.ones((4, 1)))
        assert imp[0, 0] == pytest.approx(0.7310586, abs=1e-7)

    def test_matches_loop_oracle(self):
        model = random_model([3, 2], seed=23)
        calib = np.random.default_rng(1).uniform(-1, 1, size=(6, 3))
        imp, = edge_importances(model, calib)
        assert_importances_match(model.layers[0], calib, imp)

    def test_deeper_layer_scored_on_its_input(self):
        model = random_model([3, 4, 2], seed=27)
        calib = np.random.default_rng(2).uniform(-1.2, 1.2, size=(6, 3))
        first, second = edge_importances(model, calib)
        assert first.shape == (4, 3) and second.shape == (2, 4)
        assert_importances_match(model.layers[0], calib, first)
        assert_importances_match(model.layers[1],
                                 layer_forward_ref(model.layers[0], calib), second)

    def test_last_layer_never_forwarded(self, monkeypatch):
        model = random_model([3, 4, 2], seed=28)
        last = model.layers[-1]
        for name in ("forward", "apply"):
            monkeypatch.setattr(last, name, lambda x: pytest.fail("forwarded"))
        edge_importances(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("rows", [1, ROW_CHUNK, 3 * ROW_CHUNK + 7])
    def test_matches_whole_tensor_oracle(self, rows):
        model = random_model([64, 32, 10], seed=29)
        calib = np.random.default_rng(rows).uniform(-1.1, 1.1, size=(rows, 64))
        got = edge_importances(model, calib)
        want = edge_importances_tensor_ref(model, calib)
        assert all(np.max(np.abs(g - w)) < 1e-12 for g, w in zip(got, want, strict=True))

    def test_each_layer_prepares_its_rows_once(self, monkeypatch):
        model = random_model([64, 32, 10], seed=30)
        rows = 3 * ROW_CHUNK + 7
        prepared = [0] * len(model.layers)
        for k, layer in enumerate(model.layers):
            def counted(x, k=k, prepare=layer.prepare):
                prepared[k] += len(x)
                return prepare(x)
            monkeypatch.setattr(layer, "prepare", counted)
        edge_importances(model, np.random.default_rng(3).uniform(-1, 1, size=(rows, 64)))
        assert prepared == [rows] * len(model.layers)

    def test_empty_batch_rejected(self):
        model = random_model([2, 2], seed=24)
        with pytest.raises(ValueError):
            edge_importances(model, np.zeros((0, 2)))


class TestPruneKan:
    def test_ratio_zero_is_identity(self):
        model = random_model([3, 2], seed=26)
        calib = np.random.default_rng(2).uniform(-1, 1, size=(8, 3))
        pruned = prune_kan(model, 0.0, calib)
        assert np.array_equal(pruned.params, model.params)

    def test_ratio_one_masks_everything(self):
        model = random_model([3, 4, 2], seed=27)
        calib = np.random.default_rng(3).uniform(-1, 1, size=(8, 3))
        pruned = prune_kan(model, 1.0, calib)
        assert np.all(pruned.params == 0.0)
        out, _ = pruned.forward(calib)
        assert np.all(out == 0.0)

    def test_lowest_importance_edges_masked(self):
        model = KanModel.create([2, 2], seed=28)
        layer = model.layers[0]
        layer.coeffs[:] = 0.0
        layer.w_s[:] = 0.0
        # silu path only: distinct importances set by |w_b|
        layer.w_b[:] = np.array([[0.1, 4.0], [2.0, 3.0]])
        calib = np.ones((4, 2))
        pruned = prune_kan(model, 0.5, calib)
        # the weakest (0, 0) and second weakest (1, 0) edges are zeroed
        assert np.array_equal(pruned_edges(pruned.layers[0]),
                              [[True, False], [True, False]])

    def test_masked_count_is_floor(self):
        model = random_model([3, 3, 2], seed=29)  # 9 + 6 = 15 edges
        calib = np.random.default_rng(4).uniform(-1, 1, size=(8, 3))
        for ratio, expected in ((0.1, 1), (0.3, 4), (0.5, 7), (0.6, 9)):
            pruned = prune_kan(model, ratio, calib)
            masked = sum(int(pruned_edges(layer).sum()) for layer in pruned.layers)
            assert masked == expected, f"ratio {ratio}"

    def test_original_untouched_and_params_zeroed(self):
        model = random_model([3, 2], seed=30)
        snap = model.layers[0].coeffs.copy()
        calib = np.random.default_rng(5).uniform(-1, 1, size=(8, 3))
        pruned = prune_kan(model, 0.5, calib)
        assert np.array_equal(model.layers[0].coeffs, snap)
        keep, = keep_masks(edge_importances(model, calib), 0.5)
        assert np.array_equal(pruned_edges(pruned.layers[0]), ~keep)
        for name in ("coeffs", "w_b", "w_s"):
            kept = getattr(pruned.layers[0], name)[keep]
            assert np.array_equal(kept, getattr(model.layers[0], name)[keep])

    def test_invalid_ratio(self):
        model = random_model([2, 2], seed=32)
        with pytest.raises(ValueError):
            prune_kan(model, 1.5, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            prune_kan(model, -0.1, np.zeros((4, 2)))
