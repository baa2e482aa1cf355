"""Loss functions against independent scalar-loop oracles and closed forms."""

import math
import re

import numpy as np
import pytest

from xmodal import losses
from xmodal import tensor as T
from xmodal.errors import ContractError
from xmodal.losses import LossWeights, _nearest_neighbor_indices, schedule_weight

# each loss of a two-modality stack, on its two 2-D operands
from reference_ops import combined2 as combined_loss
from reference_ops import mde2 as loss_mde
from reference_ops import mim2 as loss_mim
from reference_ops import msp2 as loss_msp


def msp_neighbor_indices(y):
    """The neighbor selection of ``loss_msp``, from the squared row norms it passes."""
    return _nearest_neighbor_indices(y[None], np.add.reduce(y * y, axis=1)[None])[0]


# ---------------------------------------------------------------------------
# naive oracles: plain python double loops, no shared code with the package
# ---------------------------------------------------------------------------

def cos(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def naive_nt_xent(i, z_src, z_tgt, tau):
    num = math.exp(cos(z_src[i], z_tgt[i]) / tau)
    den = 0.0
    for q in range(len(z_tgt)):
        if q == i:
            continue
        den += math.exp(cos(z_src[i], z_tgt[q]) / tau)
    return -math.log(num / den)


def naive_mim(z_j, z_k, tau):
    n = len(z_j)
    total = 0.0
    for i in range(n):
        total += naive_nt_xent(i, z_j, z_k, tau) + naive_nt_xent(i, z_k, z_j, tau)
    return total / (2 * n)


def naive_mde(y_j, y_k):
    n = len(y_j)
    return -sum(math.log(1 + math.exp(cos(y_j[i], y_k[i]))) for i in range(n)) / n


def naive_msp(y_j, y_k):
    n = len(y_j)
    total = 0.0
    for y in (y_j, y_k):
        for i in range(n):
            best, best_d = None, None
            for q in range(n):
                if q == i:
                    continue
                d = float(np.linalg.norm(y[i] - y[q]))
                if best_d is None or d < best_d:
                    best, best_d = q, d
            total += cos(y[i], y[best])
    return -total / (2 * n)


def assert_gradients_match(f, a0, b0, tol=1e-4):
    """Analytic gradients of f(a, b) for both operands against finite differences."""
    a, b = T.Tensor(a0, grad_enabled=True), T.Tensor(b0, grad_enabled=True)
    T.backward(f(a, b))
    assert T.rel_error(a.grad, T.finite_diff_grad(lambda x: f(x, T.Tensor(b0)), a0).data) < tol
    assert T.rel_error(b.grad, T.finite_diff_grad(lambda x: f(T.Tensor(a0), x), b0).data) < tol


class TestNtXentTerm:
    """The NT-Xent term of each anchor, checked through loss_mim, which fuses both directions."""

    def test_all_identical_closed_form(self):
        z = np.tile(np.random.default_rng(0).normal(size=6), (9, 1))
        val = loss_mim(T.Tensor(z), T.Tensor(z), 0.2).item()
        assert val == pytest.approx(math.log(8), abs=1e-9)

    def test_t2_closed_form(self):
        # each anchor's denominator holds only the other tuple:
        # loss = (S_01 + S_10 - S_00 - S_11) / 2 with S = cos / tau
        rng = np.random.default_rng(1)
        z_j, z_k = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        tau = 0.2
        expected = (cos(z_j[0], z_k[1]) + cos(z_j[1], z_k[0])
                    - cos(z_j[0], z_k[0]) - cos(z_j[1], z_k[1])) / (2 * tau)
        assert loss_mim(T.Tensor(z_j), T.Tensor(z_k), tau).item() == \
            pytest.approx(expected, abs=1e-10)

    def test_matches_naive_t8(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z_j, z_k = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
            assert loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item() == \
                pytest.approx(naive_mim(z_j, z_k, 0.2), abs=1e-10)

    def test_t1_rejected(self):
        with pytest.raises(ContractError):
            loss_mim(T.Tensor(np.ones((1, 4))), T.Tensor(np.ones((1, 4))), 0.2)


class TestLossMim:
    def test_symmetric_in_modalities(self):
        rng = np.random.default_rng(4)
        z_j, z_k = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        a = loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item()
        b = loss_mim(T.Tensor(z_k), T.Tensor(z_j), 0.2).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_identical_embeddings_closed_form(self):
        z = np.tile(np.random.default_rng(5).normal(size=7), (9, 1))
        assert loss_mim(T.Tensor(z), T.Tensor(z), 0.2).item() == \
            pytest.approx(math.log(8), abs=1e-9)

    def test_row_rescale_invariance(self):
        rng = np.random.default_rng(6)
        z_j, z_k = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        base = loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item()
        z_j2 = z_j.copy()
        z_j2[2] *= 37.5
        assert loss_mim(T.Tensor(z_j2), T.Tensor(z_k), 0.2).item() == \
            pytest.approx(base, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        z_j, z_k = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        base = loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item()
        permuted = loss_mim(T.Tensor(z_j[perm]), T.Tensor(z_k[perm]), 0.2).item()
        assert permuted == pytest.approx(base, abs=1e-10)

    def test_oracle_equivalence_random_sizes(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            z_j, z_k = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
            assert loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item() == \
                pytest.approx(naive_mim(z_j, z_k, 0.2), abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        z_j, z_k = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        f = lambda x: loss_mim(x, T.Tensor(z_k), 0.2)
        x = T.Tensor(z_j, grad_enabled=True)
        T.backward(f(x))
        assert T.rel_error(x.grad, T.finite_diff_grad(f, z_j).data) < 1e-4

    def test_small_tau_stable(self):
        # logits up to 1/tau = 1000 overflow exp(); the log-sum-exp must not
        rng = np.random.default_rng(34)
        z_j, z_k = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        tau = 1e-3
        u_j = z_j / np.linalg.norm(z_j, axis=1, keepdims=True)
        u_k = z_k / np.linalg.norm(z_k, axis=1, keepdims=True)
        s = u_j @ u_k.T / tau
        total = 0.0
        for logits in (s, s.T):
            for i in range(6):
                others = [logits[i, q] for q in range(6) if q != i]
                total += np.logaddexp.reduce(others) - logits[i, i]
        got = loss_mim(T.Tensor(z_j), T.Tensor(z_k), tau).item()
        assert np.isfinite(got)
        assert got == pytest.approx(total / 12, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 8])
    def test_gradient_both_operands(self, n):
        rng = np.random.default_rng(35 + n)
        z_j, z_k = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        assert_gradients_match(lambda a, b: loss_mim(a, b, 0.2), z_j, z_k)


class TestLossMde:
    @pytest.mark.parametrize("shape, problem", [
        ((4, 6), "need a stack of 2 or more modality batches, got shape (4, 6)"),
        ((1, 4, 6), "need a stack of 2 or more modality batches, got shape (1, 4, 6)"),
        ((2, 0, 6), "need batch size >= 1")])
    def test_library_caller_bad_stack_rejected(self, shape, problem):
        y = np.ones(shape)
        with pytest.raises(ContractError, match=f"^loss_mde: {re.escape(problem)}$"):
            losses.loss_mde(y, losses.row_squares(y))

    def test_array_input_equals_tensor_input(self):
        y = np.random.default_rng(9).normal(size=(2, 4, 6))
        sq = losses.row_squares(y)
        assert losses.loss_mde(y, sq).data.tobytes() == \
            losses.loss_mde(T.Tensor(y), sq).data.tobytes()

    def test_identical_rows_lower_bound(self):
        y = np.random.default_rng(10).normal(size=(4, 6))
        assert loss_mde(T.Tensor(y), T.Tensor(y)).item() == \
            pytest.approx(-math.log(1 + math.e), abs=1e-9)

    def test_antipodal_rows_upper_bound(self):
        y = np.random.default_rng(11).normal(size=(4, 6))
        assert loss_mde(T.Tensor(y), T.Tensor(-y)).item() == \
            pytest.approx(-math.log(1 + math.exp(-1)), abs=1e-9)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            y_j, y_k = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
            assert loss_mde(T.Tensor(y_j), T.Tensor(y_k)).item() == \
                pytest.approx(naive_mde(y_j, y_k), abs=1e-12)

    def test_monotone_in_pair_similarity(self):
        # pulling one aligned pair closer strictly decreases the loss
        rng = np.random.default_rng(13)
        y_j, y_k = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        before = loss_mde(T.Tensor(y_j), T.Tensor(y_k)).item()
        y_k2 = y_k.copy()
        y_k2[1] = 0.5 * y_k[1] + 0.5 * y_j[1] * np.linalg.norm(y_k[1]) / np.linalg.norm(y_j[1])
        assert cos(y_j[1], y_k2[1]) > cos(y_j[1], y_k[1])
        assert loss_mde(T.Tensor(y_j), T.Tensor(y_k2)).item() < before

    def test_gradient(self):
        rng = np.random.default_rng(14)
        y_j, y_k = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        f = lambda x: loss_mde(x, T.Tensor(y_k))
        x = T.Tensor(y_j, grad_enabled=True)
        T.backward(f(x))
        assert T.rel_error(x.grad, T.finite_diff_grad(f, y_j).data) < 1e-4

    def test_gradient_is_sigmoid_times_cosine_gradient(self):
        # one orthogonal unit pair: s = 0, ds/dy_j = y_k, so dL/dy_j = -sigmoid(0) y_k
        y_j, y_k = T.Tensor([[1.0, 0.0]], grad_enabled=True), T.Tensor([[0.0, 1.0]], grad_enabled=True)
        T.backward(loss_mde(y_j, y_k))
        np.testing.assert_allclose(y_j.grad, [[0.0, -0.5]], atol=1e-15)
        np.testing.assert_allclose(y_k.grad, [[-0.5, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8])
    def test_gradient_both_operands(self, n):
        rng = np.random.default_rng(40 + n)
        y_j, y_k = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        assert_gradients_match(loss_mde, y_j, y_k)


class TestLossMsp:
    def test_identical_rows_give_minus_one(self):
        y = np.tile(np.random.default_rng(15).normal(size=5), (4, 1))
        assert loss_msp(T.Tensor(y), T.Tensor(y)).item() == -1.0

    def test_hand_computed_t2(self):
        y_j = np.array([[1.0, 0.0], [0.0, 1.0]])
        y_k = np.array([[1.0, 1.0], [1.0, 1.0]])
        # modality j: each row's only neighbor is orthogonal (s=0);
        # modality k: neighbor is an identical copy (s=1)
        assert loss_msp(T.Tensor(y_j), T.Tensor(y_k)).item() == pytest.approx(-0.5, abs=1e-12)

    def test_neighbor_selection_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            y = rng.normal(size=(8, 5))
            idx = msp_neighbor_indices(y)
            for i in range(8):
                dists = [(np.linalg.norm(y[i] - y[q]), q) for q in range(8) if q != i]
                assert idx[i] == min(dists)[1]

    def test_tie_breaks_to_lowest_index(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # rows 1, 2, 3 are all at distance 1 from row 0
        assert msp_neighbor_indices(y)[0] == 1

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 17))
            y_j, y_k = rng.normal(size=(n, 5)), rng.normal(size=(n, 5))
            assert loss_msp(T.Tensor(y_j), T.Tensor(y_k)).item() == \
                pytest.approx(naive_msp(y_j, y_k), abs=1e-10)

    def test_t1_rejected(self):
        with pytest.raises(ContractError):
            loss_msp(T.Tensor(np.ones((1, 3))), T.Tensor(np.ones((1, 3))))

    def test_gradient_with_frozen_selection(self):
        rng = np.random.default_rng(18)
        y_j, y_k = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        f = lambda x: loss_msp(x, T.Tensor(y_k))
        x = T.Tensor(y_j, grad_enabled=True)
        T.backward(f(x))
        assert T.rel_error(x.grad, T.finite_diff_grad(f, y_j).data) < 1e-4

    @pytest.mark.parametrize("n", [2, 8])
    def test_gradient_both_operands(self, n):
        rng = np.random.default_rng(50 + n)
        y_j, y_k = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
        assert_gradients_match(loss_msp, y_j, y_k)

    def test_shared_neighbor_gradient_scatter_adds(self):
        # rows 0 and 2 both pick row 1, so row 1 collects two neighbor terms
        y = np.array([[1.0, 0.1, 0.0], [1.0, 0.0, 0.2], [1.1, -0.1, 0.3], [-1.0, 0.5, 0.0]])
        y_k = np.random.default_rng(52).normal(size=(4, 3))
        np.testing.assert_array_equal(msp_neighbor_indices(y), [1, 2, 1, 0])
        assert_gradients_match(loss_msp, y, y_k)


class TestCombinedLoss:
    def _random_batch(self, seed, n=4, dim=8):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(n, dim)) for _ in range(4)]

    def test_zero_weights_reduce_to_mim(self):
        z_j, z_k, y_j, y_k = self._random_batch(19)
        bd = combined_loss(T.Tensor(z_j), T.Tensor(z_k), T.Tensor(y_j), T.Tensor(y_k),
                           LossWeights(alpha=0.0, beta=0.0, tau=0.2))
        assert bd.total == bd.mim

    def test_unit_weights_sum(self):
        z_j, z_k, y_j, y_k = self._random_batch(20)
        bd = combined_loss(T.Tensor(z_j), T.Tensor(z_k), T.Tensor(y_j), T.Tensor(y_k),
                           LossWeights(alpha=1.0, beta=1.0, tau=0.2))
        assert bd.total == pytest.approx(bd.mim + bd.mde + bd.msp, abs=1e-12)

    def test_breakdown_invariants(self):
        for seed in range(21, 31):
            z_j, z_k, y_j, y_k = self._random_batch(seed)
            weights = LossWeights(alpha=0.3, beta=0.6, tau=0.2)
            bd = combined_loss(T.Tensor(z_j), T.Tensor(z_k), T.Tensor(y_j), T.Tensor(y_k), weights)
            assert bd.total == pytest.approx(
                bd.mim + weights.alpha * bd.mde + weights.beta * bd.msp, abs=1e-12)
            assert -math.log(1 + math.e) - 1e-12 <= bd.mde <= -math.log(1 + 1 / math.e) + 1e-12
            assert -1 - 1e-12 <= bd.msp <= 1 + 1e-12

    def test_inconsistent_batch_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ContractError):
            combined_loss(T.Tensor(rng.normal(size=(4, 8))),
                          T.Tensor(rng.normal(size=(4, 8))),
                          T.Tensor(rng.normal(size=(5, 8))),
                          T.Tensor(rng.normal(size=(5, 8))),
                          LossWeights())

    def test_full_gradient_vs_finite_differences(self):
        z_k, y_k = (np.random.default_rng(32).normal(size=(4, 8)) for _ in range(2))
        weights = LossWeights(alpha=0.5, beta=0.25, tau=0.2)
        rng = np.random.default_rng(33)

        def f(x):
            return combined_loss(x, T.Tensor(z_k), x, T.Tensor(y_k), weights).total_node

        x0 = rng.normal(size=(4, 8))
        x = T.Tensor(x0, grad_enabled=True)
        T.backward(f(x))
        assert T.rel_error(x.grad, T.finite_diff_grad(f, x0).data) < 1e-4


def dead_row_stacks(m, seed, n=5, dim=4):
    """A random (m, n, dim) stack with two dead rows, an exactly-zero one (modality 0,
    row 1) and one of norm 1e-13 (the last modality, row 3), and its dead-row mask."""
    x = np.random.default_rng(seed).normal(size=(m, n, dim))
    x[0, 1] = 0.0
    x[-1, 3] = [1e-13] + [0.0] * (dim - 1)
    dead = np.zeros((m, n), bool)
    dead[0, 1] = dead[-1, 3] = True
    return x, dead


# each loss as a scalar function of its stacks: the pair mean, as combined_loss takes it
DEAD_ROW_LOSSES = {
    "mim": lambda z: T.mean(losses.loss_mim(z, losses.row_squares(z.data), 0.2)),
    "mde": lambda y: T.mean(losses.loss_mde(y, losses.row_squares(y.data))),
    "msp": lambda y: T.mean(losses.loss_msp(y, losses.row_squares(y.data))),
    "combined": lambda z, y: losses.combined_loss(
        z, y, LossWeights(alpha=0.5, beta=0.25, tau=0.2)).total_node,
}


class TestDeadRows:
    """A row of norm at most NORM_EPS is dead: its cosines and gradients are exactly 0."""

    @staticmethod
    def _operands(name, m):
        count = 2 if name == "combined" else 1
        return [dead_row_stacks(m, seed=60 + 10 * m + i) for i in range(count)]

    @staticmethod
    def _bumped(f, operands, which, at, step):
        """f's value with coordinate ``at`` of operand ``which`` moved by ``step``."""
        xs = [x.copy() for x, _ in operands]
        xs[which][at] += step
        return f(*map(T.Tensor, xs)).item()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", DEAD_ROW_LOSSES)
    def test_finite_value_and_zero_gradient_on_dead_rows(self, name, m):
        operands = self._operands(name, m)
        tensors = [T.Tensor(x, grad_enabled=True) for x, _ in operands]
        value = DEAD_ROW_LOSSES[name](*tensors)
        assert np.isfinite(value.item())
        T.backward(value)
        for t, (_, dead) in zip(tensors, operands):
            assert np.isfinite(t.grad).all()
            assert (t.grad[dead] == 0.0).all()
            assert (t.grad[~dead] != 0.0).any()

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", DEAD_ROW_LOSSES)
    def test_live_gradient_matches_finite_differences(self, name, m):
        operands = self._operands(name, m)
        f = DEAD_ROW_LOSSES[name]
        tensors = [T.Tensor(x, grad_enabled=True) for x, _ in operands]
        T.backward(f(*tensors))
        h = 1e-5
        for which, (x, dead) in enumerate(operands):
            numeric = np.zeros_like(x)
            for index in np.argwhere(~dead):   # only the live rows' coordinates
                for d in range(x.shape[-1]):
                    at = (*index, d)
                    numeric[at] = (self._bumped(f, operands, which, at, h)
                                   - self._bumped(f, operands, which, at, -h)) / (2 * h)
            assert T.rel_error(tensors[which].grad[~dead], numeric[~dead]) < 1e-4

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", DEAD_ROW_LOSSES)
    def test_value_does_not_move_with_a_dead_row(self, name, m):
        # every bump leaves the row at norm <= 2e-13, still dead: the true derivative is 0
        operands = self._operands(name, m)
        f = DEAD_ROW_LOSSES[name]
        base = f(*(T.Tensor(x) for x, _ in operands)).item()
        for which, (x, dead) in enumerate(operands):
            for index in np.argwhere(dead):
                for d in range(x.shape[-1]):
                    for step in (1e-13, -1e-13):
                        assert self._bumped(f, operands, which, (*index, d), step) == base

    def test_msp_row_whose_only_neighbor_is_dead(self):
        # two rows, one dead: neither row may pick itself, so both neighbor cosines are 0
        y = np.array([[[3.0, 4.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 2.0]]])
        sq = losses.row_squares(y)
        np.testing.assert_array_equal(_nearest_neighbor_indices(y, sq), [[1, 0], [1, 0]])
        s, _ = losses._neighbor_cosines(y, sq)
        np.testing.assert_array_equal(s, np.zeros((2, 2)))
        t = T.Tensor(y, grad_enabled=True)
        value = losses.loss_msp(t, sq)
        assert value.data.tolist() == [0.0]
        T.backward(T.mean(value))
        np.testing.assert_array_equal(t.grad, np.zeros_like(y))


class TestScheduleWeight:
    def test_paper_endpoints(self):
        assert schedule_weight(0, 100, 1e-4) == 1e-4
        assert schedule_weight(99, 100, 1e-4) == 1.0

    def test_midpoint_sqrt(self):
        # where the exponent is exactly 1/2 the weight is sqrt(w0)
        assert schedule_weight(49.5, 100, 1e-4) == pytest.approx(1e-2, rel=1e-12)

    def test_single_epoch(self):
        assert schedule_weight(0, 1, 1e-4) == 1.0

    def test_monotone_nondecreasing(self):
        values = [schedule_weight(e, 50, 1e-4) for e in range(50)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_out_of_range_epoch(self):
        with pytest.raises(ContractError):
            schedule_weight(100, 100, 1e-4)
        with pytest.raises(ContractError):
            schedule_weight(-1, 100, 1e-4)

    def test_bad_initial(self):
        with pytest.raises(ContractError):
            schedule_weight(0, 10, 0.0)
        with pytest.raises(ContractError):
            schedule_weight(0, 10, 1.5)


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(alpha=-0.1)
        with pytest.raises(ContractError):
            LossWeights(tau=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN passes every comparison the range checks make
        with pytest.raises(ContractError, match=f"^LossWeights {field}={value} must be finite$"):
            LossWeights(**{field: value})
