"""Tensor primitives: values, gradients vs finite differences, invariants."""

import numpy as np
import pytest

from xmodal import tensor as T
from xmodal.errors import ContractError, DegenerateInputError, ShapeMismatchError

from reference_ops import (DegenerateVectorWarning, DomainError, add_rowvec, cosine_similarity,
                           dot, elementwise, exp, l2_normalize, log, matmul, mul, relu, scale,
                           softplus, stack, sub, tanh, tsum)


def grad_of(f, x0):
    """Analytic gradient of scalar f at x0 via the tape."""
    x = T.Tensor(x0, grad_enabled=True)
    T.backward(f(x))
    return x.grad


def fd_of(f, x0, h=1e-5):
    return T.finite_diff_grad(f, x0, h=h).data


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(T.Tensor(a), T.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_computed(self):
        out = matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_gradient_both_inputs(self):
        rng = np.random.default_rng(0)
        a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        f_a = lambda x: tsum(matmul(x, T.Tensor(b0)))
        f_b = lambda x: tsum(matmul(T.Tensor(a0), x))
        assert T.rel_error(grad_of(f_a, a0), fd_of(f_a, a0)) < 1e-6
        assert T.rel_error(grad_of(f_b, b0), fd_of(f_b, b0)) < 1e-6

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(15)
        x = T.Tensor(rng.normal(size=(3, 4)))                    # a raw feature batch
        w = T.Tensor(rng.normal(size=(4, 2)), grad_enabled=True)
        out = matmul(x, w)
        grad_x, grad_w = out._backward(np.ones((3, 2)))
        assert grad_x is None
        np.testing.assert_array_equal(grad_w, x.data.T @ np.ones((3, 2)))
        assert T.backward(tsum(out)) is None
        np.testing.assert_array_equal(w.grad, grad_w)
        assert x.grad is None


class TestElementwise:
    def test_softplus_at_zero(self):
        assert softplus(T.Tensor(0.0)).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_tanh_at_zero(self):
        assert tanh(T.Tensor(0.0)).item() == 0.0

    def test_softplus_gradient_is_sigmoid(self):
        g = grad_of(lambda x: tsum(softplus(x)), np.array([1.0]))
        sigmoid1 = 1 / (1 + np.exp(-1.0))
        assert g[0] == pytest.approx(sigmoid1, abs=1e-10)
        assert T.rel_error(g, fd_of(lambda x: tsum(softplus(x)), np.array([1.0]))) < 1e-8

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            log(T.Tensor([-1.0]))

    def test_dispatch(self):
        out = elementwise("add", T.Tensor([1.0]), T.Tensor([2.0]))
        assert out.data[0] == 3.0
        with pytest.raises(ContractError):
            elementwise("nope", T.Tensor([1.0]))

    @pytest.mark.parametrize("name,f", [
        ("add", lambda x: tsum(T.add(x, T.Tensor(np.full(5, 0.3))))),
        ("sub", lambda x: tsum(sub(x, T.Tensor(np.full(5, 0.3))))),
        ("mul", lambda x: tsum(mul(x, T.Tensor(np.linspace(-1, 1, 5))))),
        ("scale", lambda x: tsum(scale(x, 2.5))),
        ("tanh", lambda x: tsum(tanh(x))),
        ("softplus", lambda x: tsum(softplus(x))),
        ("exp", lambda x: tsum(exp(x))),
    ])
    def test_gradients_100_random_points(self, name, f):
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x0 = rng.normal(size=5)
            assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-5

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(1)
        f = lambda x: tsum(relu(x))
        for _ in range(100):
            x0 = rng.normal(size=5)
            x0[np.abs(x0) < 1e-3] = 0.5  # finite differences straddle the kink
            assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-5

    def test_log_gradient(self):
        rng = np.random.default_rng(2)
        f = lambda x: tsum(log(x))
        for _ in range(100):
            x0 = rng.uniform(0.1, 3.0, size=5)
            assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-5


class TestL2Normalize:
    def test_closed_form(self):
        out = l2_normalize(T.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(l2_normalize(T.Tensor(v)).data, v)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=16)
        assert abs(np.linalg.norm(l2_normalize(T.Tensor(v)).data) - 1.0) < 1e-12

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(size=8)
            once = l2_normalize(T.Tensor(v)).data
            twice = l2_normalize(T.Tensor(once)).data
            np.testing.assert_array_equal(once, twice)

    def test_degenerate_passthrough_warns(self):
        v = np.zeros(4)
        with pytest.warns(DegenerateVectorWarning):
            out = l2_normalize(T.Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_gradient_with_dot(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=6)
        f = lambda x: dot(l2_normalize(x), T.Tensor(w))
        x0 = rng.normal(size=6)
        assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-6


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(T.Tensor(v), T.Tensor(v)).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        s = cosine_similarity(T.Tensor([1.0, 0.0]), T.Tensor([0.0, 1.0]))
        assert s.item() == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self):
        s = cosine_similarity(T.Tensor([1.0, 1.0]), T.Tensor([1.0, 0.0]))
        assert s.item() == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(T.Tensor([0.0, 0.0]), T.Tensor([1.0, 0.0]))

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u, v = rng.normal(size=7), rng.normal(size=7)
            s_uv = cosine_similarity(T.Tensor(u), T.Tensor(v)).item()
            s_vu = cosine_similarity(T.Tensor(v), T.Tensor(u)).item()
            assert -1 - 1e-12 <= s_uv <= 1 + 1e-12
            assert s_uv == pytest.approx(s_vu, abs=1e-14)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=6)
        f = lambda x: cosine_similarity(x, T.Tensor(v))
        for _ in range(10):
            u0 = rng.normal(size=6)
            assert T.rel_error(grad_of(f, u0), fd_of(f, u0)) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor(np.arange(5.0), grad_enabled=True)
        T.backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones(5))

    def test_non_scalar_rejected(self):
        x = T.Tensor(np.ones(3), grad_enabled=True)
        with pytest.raises(ContractError):
            T.backward(x)

    def test_fanout_accumulates(self):
        # y = sum(x*x) + sum(x): x feeds two consumers
        def f(x):
            return T.add(tsum(mul(x, x)), tsum(x))
        rng = np.random.default_rng(10)
        x0 = rng.normal(size=6)
        np.testing.assert_allclose(grad_of(f, x0), 2 * x0 + 1, atol=1e-12)
        assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-6

    def test_leaf_gradient_map(self):
        x = T.Tensor([2.0], grad_enabled=True)
        y = T.Tensor([3.0], grad_enabled=True)
        T.backward(tsum(mul(x, y)))
        np.testing.assert_array_equal(x.grad, [3.0])
        np.testing.assert_array_equal(y.grad, [2.0])

    def test_custom_node_skips_constant_parent(self):
        # a node's closure may leave a constant operand's slot empty
        x = T.Tensor([1.0, 2.0], grad_enabled=True)
        c = T.Tensor([5.0, 7.0])
        out = T.node(float(x.data @ c.data), (x, c), lambda g: (float(g) * c.data, None))
        T.backward(out)
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])
        assert c.grad is None

    def test_zeros_built_only_for_leaf_without_gradient(self, monkeypatch):
        # the closure returns one gradient for two parents: y receives none
        x = T.Tensor([1.0, 2.0], grad_enabled=True)
        y = T.Tensor([[3.0]], grad_enabled=True)
        shapes, zeros_like = [], np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda a: shapes.append(a.shape) or zeros_like(a))
        T.backward(T.node(float(x.data.sum()), (x, y), lambda g: (np.full(2, float(g)),)))
        assert shapes == [(1, 1)]
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        np.testing.assert_array_equal(y.grad, [[0.0]])


class TestAuxiliaryPrimitives:
    def test_add_rowvec_gradient(self):
        rng = np.random.default_rng(13)
        x0, b0 = rng.normal(size=(3, 4)), rng.normal(size=4)
        f_b = lambda b: tsum(tanh(add_rowvec(T.Tensor(x0), b)))
        assert T.rel_error(grad_of(f_b, b0), fd_of(f_b, b0)) < 1e-6

    def test_add_rejects_broadcasting_shapes(self):
        # a broadcast sum would hand the smaller operand a gradient of the larger shape
        with pytest.raises(ShapeMismatchError):
            T.add(T.Tensor(np.ones(3), grad_enabled=True), T.Tensor(np.ones(1)))


def _chain(x, w, b, activation):
    """The layer as the primitive chain that ``dense`` fuses."""
    pre = add_rowvec(matmul(x, w), b)
    return {"tanh": tanh, "relu": relu, None: lambda t: t}[activation](pre)


class TestDense:
    ACTIVATIONS = ["tanh", "relu", None]

    @staticmethod
    def operands(seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3),
                rng.normal(size=(5, 3)))

    @staticmethod
    def special_operands(seed):
        """Pre-activations that are negative, exactly zero (an all-zero row plus a
        zero bias) and NaN (a NaN feature)."""
        x, w, b, g = TestDense.operands(seed)
        x[1], b[0], x[3, 2] = 0.0, 0.0, np.nan
        return x, w, b, g

    @staticmethod
    def encoder_batch(seed):
        rng = np.random.default_rng(seed)   # the lookup benchmark's 1200 rows, 64 -> 128
        return (rng.normal(size=(1200, 64)), rng.normal(size=(64, 128)) / 8,
                rng.normal(size=128), rng.normal(size=(1200, 128)))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_bit_identical_to_primitive_chain(self, activation):
        # tobytes: assert_array_equal takes -0.0 for 0.0, and a product by the ReLU
        # mask would leave -0.0 at negative and NaN at NaN pre-activations
        special = self.special_operands(20)
        pre = special[0] @ special[1] + special[2]
        assert (pre < 0).any() and (pre == 0).any() and np.isnan(pre).any()
        for x0, w0, b0, g0 in (self.operands(20), special, self.encoder_batch(20)):
            results = []
            for layer in (T.dense, _chain):
                x, w, b = (T.Tensor(a, grad_enabled=True) for a in (x0, w0, b0))
                out = layer(x, w, b, activation)
                T.backward(tsum(mul(out, T.Tensor(g0))))
                results.append([out.data, x.grad, w.grad, b.grad])
            for fused, chained in zip(*results):
                assert fused.dtype == chained.dtype and fused.shape == chained.shape
                assert fused.tobytes() == chained.tobytes()
            if activation == "relu":
                assert not np.signbit(results[0][0]).any()

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, activation, operand):
        values = self.operands(21)
        g = T.Tensor(values[3])

        def f(t):
            args = [T.Tensor(a) for a in values[:3]]
            args[operand] = t
            return tsum(mul(T.dense(*args, activation), g))

        x0 = values[operand]
        assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-6

    def test_constant_input_gets_no_gradient(self):
        x0, w0, b0, g0 = self.operands(22)
        x = T.Tensor(x0)                                        # a raw feature batch
        w, b = T.Tensor(w0, grad_enabled=True), T.Tensor(b0, grad_enabled=True)
        out = T.dense(x, w, b, "tanh")
        assert out._backward(g0)[0] is None
        T.backward(tsum(out))
        assert x.grad is None
        assert w.grad.shape == w0.shape and b.grad.shape == b0.shape

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("shared", [False, True], ids=["per_modality", "shared"])
    @pytest.mark.parametrize("modalities", [2, 3])
    def test_stack_bit_identical_to_each_slice(self, activation, shared, modalities):
        # a stack of M batches gives each slice the value and gradients of a 2-D dense
        # over that slice; a shared weight's gradients are the slices' added in order
        rng = np.random.default_rng(25)
        x0, g0 = rng.normal(size=(modalities, 32, 16)), rng.normal(size=(modalities, 32, 8))
        x0[0, 1], x0[1, 3, 2] = 0.0, np.nan   # a zero and a NaN pre-activation
        w0 = rng.normal(size=(16, 8) if shared else (modalities, 16, 8))
        b0 = rng.normal(size=(8,) if shared else (modalities, 8))
        b0[..., 0] = 0.0
        x, w, b = (T.Tensor(a, grad_enabled=True) for a in (x0, w0, b0))
        out = T.dense(x, w, b, activation)
        T.backward(tsum(mul(out, T.Tensor(g0))))
        slices = []
        for m in range(modalities):
            xm = T.Tensor(x0[m], grad_enabled=True)
            wm, bm = (T.Tensor(a if shared else a[m], grad_enabled=True) for a in (w0, b0))
            om = T.dense(xm, wm, bm, activation)
            T.backward(tsum(mul(om, T.Tensor(g0[m]))))
            slices.append((om.data, xm.grad, wm.grad, bm.grad))
        for m, (om, gx, gw, gb) in enumerate(slices):
            assert out.data[m].tobytes() == om.tobytes()
            assert x.grad[m].tobytes() == gx.tobytes()
            if not shared:
                assert w.grad[m].tobytes() == gw.tobytes() and b.grad[m].tobytes() == gb.tobytes()
        if shared:
            gw, gb = slices[0][2], slices[0][3]
            for _, _, w_m, b_m in slices[1:]:
                gw, gb = gw + w_m, gb + b_m
            assert w.grad.tobytes() == gw.tobytes() and b.grad.tobytes() == gb.tobytes()

    @pytest.mark.parametrize("shapes", [
        ((5,), (4, 3), (3,)),        # x not a batch
        ((5, 4), (3, 3), (3,)),      # x and w disagree
        ((5, 4), (4, 3), (2,)),      # w and b disagree
        ((5, 4), (4, 3), (1, 3)),    # b not a vector
        ((2, 5, 4), (3, 4, 3), (3, 3)),   # a stack of 2 and weights for 3 modalities
        ((2, 5, 4), (2, 4, 3), (3,)),     # per-modality weights with a shared bias
    ])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ShapeMismatchError):
            T.dense(*(T.Tensor(np.ones(s)) for s in shapes))

    def test_unknown_activation(self):
        with pytest.raises(ContractError):
            T.dense(np.ones((2, 3)), np.ones((3, 4)), np.ones(4), "gelu")


class TestWeightedSum:
    def test_value_added_left_to_right(self):
        terms = [(T.Tensor(1.0), 1.0), (T.Tensor(1e16), 1.0), (T.Tensor(-1e16), 1.0)]
        assert T.weighted_sum(terms).item() == 0.0      # (1 + 1e16) + -1e16, not 1
        rng = np.random.default_rng(23)
        a, b = (T.Tensor(rng.normal(size=(3, 2))) for _ in range(2))
        np.testing.assert_array_equal(T.weighted_sum([(a, 0.3), (b, 0.7)]).data,
                                      T.add(scale(a, 0.3), scale(b, 0.7)).data)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        w = T.Tensor(rng.normal(size=5))

        def f(x):
            return T.weighted_sum([(tsum(mul(x, x)), 0.7),
                                   (tsum(tanh(mul(x, w))), -1.3)])

        x0 = rng.normal(size=5)
        assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-6

    def test_all_constant_terms_give_a_constant(self):
        out = T.weighted_sum([(T.Tensor(2.0), 3.0), (tsum(T.Tensor([1.0, 1.0])), 0.5)])
        assert out.item() == 7.0
        assert not out.grad_enabled and out._parents == () and out._backward is None

    def test_constant_operand_slot_stays_empty(self):
        # a term whose closure returns None for its constant operand
        x = T.Tensor([1.0, 2.0], grad_enabled=True)
        c = T.Tensor([5.0, 7.0])
        term = T.node(float(x.data @ c.data), (x, c), lambda g: (float(g) * c.data, None))
        out = T.weighted_sum([(term, 2.0)])
        assert out._parents == (x, c)
        assert out._backward(np.array(1.0))[1] is None
        T.backward(out)
        np.testing.assert_array_equal(x.grad, [10.0, 14.0])
        assert c.grad is None and term.grad is None

    def test_grad_enabled_leaf_term_is_its_own_parent(self):
        x = T.Tensor(3.0, grad_enabled=True)
        out = T.weighted_sum([(x, 2.5), (mul(x, x), 4.0)])
        assert out._parents == (x, x, x)
        assert out.item() == 3.0 * 2.5 + 9.0 * 4.0
        T.backward(out)
        assert x.grad == 2.5 + 4.0 * 3.0 + 4.0 * 3.0

    def test_repeated_parent_summed_slot_by_slot_in_order(self):
        x = T.Tensor(0.0, grad_enabled=True)
        terms = [(T.node(0.0, (x,), lambda g, v=v: (g * v,)), 1.0)
                 for v in (1.0, 1e16, -1e16)]
        out = T.weighted_sum(terms)
        assert out._parents == (x, x, x)
        T.backward(out)
        assert x.grad == 0.0                            # (1 + 1e16) + -1e16, not 1
        assert all(t.grad is None for t, _ in terms)    # the terms are never visited

    def test_shape_mismatch_and_no_terms(self):
        with pytest.raises(ShapeMismatchError):
            T.weighted_sum([(T.Tensor(np.ones(2)), 1.0), (T.Tensor(np.ones(3)), 1.0)])
        with pytest.raises(ContractError):
            T.weighted_sum([])


class TestStackAndMean:
    def test_stack_hands_each_tensor_its_slice(self):
        rng = np.random.default_rng(26)
        a, b = (T.Tensor(rng.normal(size=(3, 2)), grad_enabled=True) for _ in range(2))
        g = rng.normal(size=(2, 3, 2))
        out = stack([a, b])
        np.testing.assert_array_equal(out.data, np.stack([a.data, b.data]))
        T.backward(tsum(mul(out, T.Tensor(g))))
        np.testing.assert_array_equal(a.grad, g[0])
        np.testing.assert_array_equal(b.grad, g[1])
        with pytest.raises(ShapeMismatchError):
            stack([a, T.Tensor(np.ones((2, 2)))])
        with pytest.raises(ContractError):
            stack([])

    def test_mean_added_left_to_right(self):
        x = T.Tensor([1.0, 1e16, -1e16], grad_enabled=True)
        out = T.mean(x)
        assert out.item() == 0.0                        # ((1 + 1e16) + -1e16) / 3, not 1/3
        T.backward(out)
        np.testing.assert_array_equal(x.grad, np.full(3, 1.0 / 3))
        with pytest.raises(ShapeMismatchError):
            T.mean(T.Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeMismatchError):
            T.mean(T.Tensor(np.ones(0)))


class TestFiniteDiff:
    def test_sum_of_squares_closed_form(self):
        g = fd_of(lambda x: tsum(mul(x, x)), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_h_must_be_positive(self):
        with pytest.raises(ContractError):
            T.finite_diff_grad(lambda x: tsum(x), np.ones(2), h=0.0)

    def test_matches_softplus_on_random_vectors(self):
        rng = np.random.default_rng(14)
        f = lambda x: tsum(softplus(x))
        for _ in range(10):
            x0 = rng.normal(size=6)
            assert T.rel_error(grad_of(f, x0), fd_of(f, x0)) < 1e-6
