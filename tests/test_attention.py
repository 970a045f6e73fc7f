"""Tests for the global-context block and saliency fusion."""

import numpy as np
import pytest

from fewdet import attention as A
from fewdet import tensor as T
from fewdet.tensor import Tape, Tensor, backward, grad_check
from oracles import fuse_bottom_up_per_call, gc_block_loops


def random_gc_params(rng, channels, ratio=4):
    p = A.init_gc_params(rng, channels, ratio)
    # init zeroes w_v2; randomize it so the block actually transforms
    p["w_v2"].data = rng.standard_normal(p["w_v2"].data.shape) * 0.5
    p["ln_bias"].data = rng.standard_normal(p["ln_bias"].data.shape) * 0.1
    return p


class TestTopdownMap:

    def test_single_cell_is_one(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.standard_normal((5, 1, 1))[None])
        wk = Tensor(rng.standard_normal((1, 5, 1, 1)))
        np.testing.assert_allclose(A.topdown_map(f, wk).data, [[[1.0]]], atol=0)

    def test_zero_kernel_gives_uniform(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.standard_normal((3, 4, 5))[None])
        wk = Tensor(np.zeros((1, 3, 1, 1)))
        np.testing.assert_allclose(A.topdown_map(f, wk).data,
                                   np.full((1, 4, 5), 1 / 20), atol=1e-15)

    def test_hand_case(self):
        """Identity 1x1 kernel on log-valued features reproduces the 2x2 table."""
        f = Tensor(np.log(np.array([[[[1.0, 3.0], [2.0, 2.0]]]])))
        wk = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(A.topdown_map(f, wk).data,
                                   [[[0.125, 0.375], [0.25, 0.25]]], atol=1e-15)

    def test_sums_to_one_100_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = int(rng.integers(1, 6))
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            f = Tensor((rng.standard_normal((c, h, w)) * rng.uniform(0.1, 20))[None])
            wk = Tensor(rng.standard_normal((1, c, 1, 1)))
            assert abs(A.topdown_map(f, wk).data.sum() - 1.0) <= 1e-12


class TestGlobalContext:

    def test_one_hot_selects_local_feature(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((4, 3, 3))
        h = np.zeros((3, 3))
        h[1, 2] = 1.0
        out = A.global_context(Tensor(f[None]), Tensor(h[None]))
        np.testing.assert_allclose(out.data, f[None, :, 1, 2], atol=0)

    def test_uniform_is_spatial_mean(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((2, 4, 4))
        h = np.full((4, 4), 1 / 16)
        out = A.global_context(Tensor(f[None]), Tensor(h[None]))
        np.testing.assert_allclose(out.data, f.mean(axis=(1, 2))[None], atol=1e-15)

    def test_hand_case(self):
        f = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        h = Tensor(np.array([[[0.1, 0.2], [0.3, 0.4]]]))
        np.testing.assert_allclose(A.global_context(f, h).data, [[3.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            A.global_context(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 2, 2))))


class TestGcBlock:

    def test_zero_wv2_is_identity_bitwise(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.standard_normal((8, 4, 4))[None])
        p = A.init_gc_params(rng, 8)  # w_v2 zero by construction
        out = A.gc_block(f, **p)[0]
        assert np.array_equal(out.data, f.data)

    def test_dead_bottleneck_is_identity(self):
        """A large negative ln_bias kills the ReLU, so even nonzero w_v2 adds 0."""
        rng = np.random.default_rng(6)
        f = Tensor(rng.standard_normal((8, 3, 3))[None])
        p = random_gc_params(rng, 8)
        p["ln_bias"].data = np.full(p["ln_bias"].data.shape, -50.0)
        out = A.gc_block(f, **p)[0]
        assert np.array_equal(out.data, f.data)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = 2
            f = rng.standard_normal((c, 2, 2))
            p = random_gc_params(rng, c, ratio=2)
            got = A.gc_block(Tensor(f[None]), **p)[0].data[0]
            want = gc_block_loops(
                f, p["w_k"].data.reshape(c), p["w_v1"].data.reshape(-1, c),
                p["ln_gain"].data, p["ln_bias"].data, p["w_v2"].data.reshape(c, -1))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        p0 = random_gc_params(rng, 4)

        def f(L):
            z, _ = A.gc_block(L["y"], L["w_k"], L["w_v1"], L["ln_gain"],
                              L["ln_bias"], L["w_v2"])
            return T.sum_all(T.square(z))

        for _ in range(3):
            point = {"y": rng.standard_normal((4, 3, 3))[None],
                     "w_k": rng.standard_normal((1, 4, 1, 1)),
                     "w_v1": rng.standard_normal((1, 4, 1, 1)),
                     "ln_gain": rng.standard_normal(1) + 1.5,
                     "ln_bias": rng.standard_normal(1),
                     "w_v2": rng.standard_normal((4, 1, 1, 1))}
            report = grad_check(f, point)
            assert max(report.values()) < 1e-4, report


class TestPoolSaliency:

    def test_integer_pooling_then_renormalization(self):
        s = np.zeros((4, 4))
        s[:2, :2] = 0.5
        got = A.pool_saliency(s, 2, 2)
        np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 0.0]], atol=0)

    def test_constant_becomes_zeros(self):
        np.testing.assert_array_equal(A.pool_saliency(np.full((8, 8), 0.7), 4, 4),
                                      np.zeros((4, 4)))

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = rng.uniform(0, 1, size=(16, 16))
            got = A.pool_saliency(s, 4, 4)
            assert got.min() >= 0.0 and got.max() <= 1.0

    def test_non_integer_factor_rejected(self):
        with pytest.raises(T.ShapeError):
            A.pool_saliency(np.zeros((6, 6)), 4, 4)


def fuse(z, maps, epsilon):
    """Fusion with the gate built from the maps pooled to z's resolution."""
    pooled = np.stack([A.pool_saliency(m, *z.shape[2:]) for m in maps])
    return A.fuse_bottom_up(z, A.bottom_up_gate(pooled, epsilon))


class TestFuseBottomUp:

    def test_neutral_gate_is_bitwise_identity(self):
        """Zero saliency with eps = e multiplies by ln(e) = 1 exactly."""
        rng = np.random.default_rng(10)
        z = Tensor(rng.standard_normal((6, 4, 4))[None])
        out = fuse(z, np.zeros((1, 16, 16)), epsilon=np.e)
        assert np.array_equal(out.data, z.data)

    def test_full_saliency_scales_by_frozen_constant(self):
        rng = np.random.default_rng(11)
        z = Tensor(rng.standard_normal((3, 4, 4))[None])
        s = np.zeros((1, 4, 4))
        s[0, 1:3, 1:3] = 1.0  # non-constant so renormalization keeps the ones
        out = fuse(z, s, epsilon=np.e)
        np.testing.assert_allclose(out.data[..., 1:3, 1:3],
                                   z.data[..., 1:3, 1:3] * 1.3132616875182228,
                                   rtol=0, atol=0)

    def test_epsilon_one_zeroes_dark_pixels(self):
        rng = np.random.default_rng(12)
        z = Tensor(rng.standard_normal((5, 2, 2))[None])
        s = np.array([[[0.0, 1.0], [0.5, 0.25]]])
        out = fuse(z, s, epsilon=1.0)
        assert np.all(out.data[0, :, 0, 0] == 0.0)

    def test_gradient_reaches_z_only(self):
        rng = np.random.default_rng(13)
        z = Tensor(rng.standard_normal((2, 2, 2))[None], requires_grad=True)
        s = rng.uniform(0, 1, size=(2, 2))
        with Tape() as tape:
            out = T.sum_all(fuse(z, s[None], epsilon=np.e))
        backward(tape, out)
        gate = np.log(np.e + A.pool_saliency(s, 2, 2))
        np.testing.assert_allclose(z.grad, np.broadcast_to(gate, (1, 2, 2, 2)),
                                   atol=1e-15)

    def test_grad_check(self):
        rng = np.random.default_rng(14)
        s = rng.uniform(0, 1, size=(4, 4))[None]
        report = grad_check(
            lambda L: T.sum_all(T.square(fuse(L["z"], s, epsilon=np.e))),
            {"z": rng.standard_normal((3, 4, 4))[None]})
        assert max(report.values()) < 1e-4

    def test_nonpositive_epsilon_rejected(self):
        for epsilon in (0.0, -1.0):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                A.bottom_up_gate(np.zeros((1, 2, 2)), epsilon)

    def test_non_integer_pooling_factor_rejected(self):
        """The gate does not pool: a map not pooled to the fusion grid, here
        6x6 for a 4x4 grid, is a ShapeError at the fusion."""
        z = Tensor(np.ones((1, 3, 4, 4)))
        with pytest.raises(T.ShapeError, match=r"\[B,1,H,W\] gate"):
            A.fuse_bottom_up(z, A.bottom_up_gate(np.zeros((1, 6, 6))))

    def test_map_without_batch_axis_rejected(self):
        with pytest.raises(T.ShapeError, match=r"\[B,h,w\]"):
            A.bottom_up_gate(np.zeros((4, 4)))

    @pytest.mark.parametrize("gate_shape", [(1, 1, 4, 4), (2, 3, 4, 4), (2, 1, 2, 2),
                                            (2, 4, 4), (2, 1, 4, 4, 1)])
    def test_mismatched_gate_rejected(self, gate_shape):
        """A gate for another batch size, resolution or layout is a
        ShapeError, not a broadcast."""
        z = Tensor(np.ones((2, 3, 4, 4)))
        with pytest.raises(T.ShapeError):
            A.fuse_bottom_up(z, Tensor(np.ones(gate_shape)))

    def test_gate_matches_per_call_fusion_bitwise(self):
        """Pooled and unpooled maps, a constant map and a batch: pooled
        once and made a gate once, they fuse to the bytes of the fusion
        that pooled the maps inside every call."""
        rng = np.random.default_rng(15)
        z = Tensor(rng.standard_normal((3, 5, 4, 4)))
        for maps in (rng.uniform(0, 1, (3, 4, 4)), rng.uniform(0, 1, (3, 16, 16)),
                     np.concatenate([np.full((1, 8, 8), 0.3),
                                     rng.uniform(0, 1, (2, 8, 8))])):
            for epsilon in (np.e, 1.0, 0.37):
                got = fuse(z, maps, epsilon)
                want = fuse_bottom_up_per_call(z, maps, epsilon)
                assert got.data.tobytes() == want.data.tobytes()


class TestUpsample:

    def test_nearest_neighbor_blocks(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = A.upsample_nearest(m, 4, 4)
        np.testing.assert_array_equal(up[:2, :2], np.full((2, 2), 1.0))
        np.testing.assert_array_equal(up[2:, 2:], np.full((2, 2), 4.0))
