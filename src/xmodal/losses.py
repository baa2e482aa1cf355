"""The three training losses and their scheduled combination.

All three are cosine-based: a temperature-scaled contrastive term over the
cross-modal embeddings z, a negative-softplus alignment term that pulls each
aligned pair of modal features y together, and a within-modality
nearest-neighbor cosine term over each modality's y. The contrastive
denominator sums only over the other tuples of the batch (the positive pair
is excluded).

Each loss is one fused autodiff node (``tensor.node``): the value is computed
with NumPy and one closure returns the hand-derived gradients of both
operands, skipping an operand that is not grad-enabled. With a batch of T
rows and s a cosine similarity:

- loss_mim: on the logits S = U_j U_k^T / tau of the row-normalised
  batches, dL/dS = (P_row + P_col - 2I) / (2T), where P_row and P_col are the
  row- and column-softmax over the denominator's entries; it is taken back
  through S and through U = Z / |Z| row by row.
- loss_mde: dL/ds_i = -sigmoid(s_i) / T, times the cosine gradient of pair i.
- loss_msp: dL/ds_i = -1 / (2T), times the cosine gradient, whose neighbor
  half is scatter-added onto the chosen neighbors.

Each loss computes its operands' squared row norms once and rejects a
(near-)zero-norm row with DegenerateInputError before anything else.
``combined_loss`` joins the weighted ``loss_mde`` and ``loss_msp`` with one
``tensor.weighted_sum`` node and adds ``loss_mim`` to it.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateInputError, check_fields


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    tau: float = 0.2

    def __post_init__(self):
        check_fields(self)
        if self.tau <= 0:
            raise ContractError("tau must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ContractError("alpha and beta must be non-negative")


@dataclass
class LossBreakdown:
    mim: float
    mde: float
    msp: float
    total: float
    total_node: T.Tensor   # the differentiable scalar of ``total``


def _operands(a, b, name, min_rows=1):
    """Both operands as Tensors of one (T, D) shape, with their squared row norms."""
    a = a if isinstance(a, T.Tensor) else T.Tensor(a)
    b = b if isinstance(b, T.Tensor) else T.Tensor(b)
    if a.data.shape != b.data.shape:
        raise ContractError(f"{name}: batch shapes differ")
    if a.data.shape[0] < min_rows:
        raise ContractError(f"{name}: need batch size >= {min_rows}")
    squares = []
    for x in (a, b):
        sq = np.add.reduce(x.data * x.data, axis=1)
        if (np.sqrt(sq) <= T.NORM_EPS).any():
            raise DegenerateInputError(f"{name}: zero-norm row in batch")
        squares.append(sq)
    return a, b, squares[0], squares[1]


def _cosine_grads(a, b, s, denom, saa, sbb):
    """ds/da and ds/db of the row cosines s = <a, b> / sqrt(|a|^2 |b|^2)."""
    return (b / denom[:, None] - s[:, None] * a / saa[:, None],
            a / denom[:, None] - s[:, None] * b / sbb[:, None])


def _unit_rows_backward(grad_u, u, norms):
    """Gradient through u = x / |x| row by row, given the gradient at u."""
    return (grad_u - np.add.reduce(grad_u * u, axis=1, keepdims=True) * u) / norms[:, None]


def loss_mim(z_j, z_k, tau):
    """Symmetric contrastive loss over both retrieval directions, averaged over tuples.

    Per tuple i and direction j->k: -log(exp(S_ii) / sum_q exp(S_iq)) with
    S = cos / tau, the sum over q != i; k->j is the same on the columns of S.
    """
    z_j, z_k, sq_j, sq_k = _operands(z_j, z_k, "loss_mim", min_rows=2)
    n = z_j.data.shape[0]
    norms_j, norms_k = np.sqrt(sq_j), np.sqrt(sq_k)
    u_j = z_j.data / norms_j[:, None]
    u_k = z_k.data / norms_k[:, None]
    logits = (u_j @ u_k.T) * (1.0 / tau)
    masked = logits.copy()
    np.fill_diagonal(masked, -np.inf)
    # direction j->k reads the rows of the logits; k->j reads the columns
    row_max = masked.max(axis=1, keepdims=True)
    exp_row = np.exp(masked - row_max)
    row_sum = exp_row.sum(axis=1, keepdims=True)
    col_max = masked.max(axis=0, keepdims=True)
    exp_col = np.exp(masked - col_max)
    col_sum = exp_col.sum(axis=0, keepdims=True)
    lse = (row_max + np.log(row_sum)).sum() + (col_max + np.log(col_sum)).sum()
    value = (lse - 2.0 * logits.trace()) * (1.0 / (2 * n))

    def backward(grad):
        g_logits = exp_row / row_sum + exp_col / col_sum
        g_logits.flat[::n + 1] -= 2.0  # the positives
        g_logits *= float(grad) / (2 * n * tau)
        return (_unit_rows_backward(g_logits @ u_k, u_j, norms_j) if z_j.grad_enabled else None,
                _unit_rows_backward(g_logits.T @ u_j, u_k, norms_k) if z_k.grad_enabled else None)

    return T.node(value, (z_j, z_k), backward)


def loss_mde(y_j, y_k):
    """Negative mean softplus of aligned-pair cosine similarity.

    Bounded in [-ln(1+e), -ln(1+1/e)]; minimized when every aligned pair is
    perfectly aligned (cosine 1), so it pulls each pair together.
    """
    y_j, y_k, saa, sbb = _operands(y_j, y_k, "loss_mde")
    n = y_j.data.shape[0]
    a, b = y_j.data, y_k.data
    denom = np.sqrt(saa * sbb)
    s = np.add.reduce(a * b, axis=1) / denom
    value = -(np.add.reduce(np.logaddexp(0.0, s)) / n)

    def backward(grad):
        g_s = (-float(grad) / n) * (1.0 / (1.0 + np.exp(-s)))  # times sigmoid(s)
        ga, gb = _cosine_grads(a, b, s, denom, saa, sbb)
        return (g_s[:, None] * ga if y_j.grad_enabled else None,
                g_s[:, None] * gb if y_k.grad_enabled else None)

    return T.node(value, (y_j, y_k), backward)


def _nearest_neighbor_indices(y_data, sq):
    """Index of each row's within-batch Euclidean nearest neighbor (self excluded).

    sq holds the squared row norms. Ties break to the lowest index via
    argmin. The selection is a constant of the batch: no gradient flows
    through the choice itself.
    """
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y_data @ y_data.T)
    np.fill_diagonal(d2, np.inf)
    return np.argmin(d2, axis=1)


def _neighbor_cosines(y, sq):
    """Cosine of each row to its nearest neighbor, and the closure for its gradient."""
    idx = _nearest_neighbor_indices(y, sq)
    nb, sq_nb = y[idx], sq[idx]
    denom = np.sqrt(sq * sq_nb)
    s = np.add.reduce(y * nb, axis=1) / denom

    def grad(g_s):
        g_row, g_nb = _cosine_grads(y, nb, s, denom, sq, sq_nb)
        out = g_s * g_row
        np.add.at(out, idx, g_s * g_nb)
        return out

    return s, grad


def loss_msp(y_j, y_k):
    """Negative mean cosine similarity of each row to its nearest within-modality neighbor."""
    y_j, y_k, sq_j, sq_k = _operands(y_j, y_k, "loss_msp", min_rows=2)
    n = y_j.data.shape[0]
    s_j, grad_j = _neighbor_cosines(y_j.data, sq_j)
    s_k, grad_k = _neighbor_cosines(y_k.data, sq_k)
    value = -((np.add.reduce(s_j) + np.add.reduce(s_k)) / (2 * n))

    def backward(grad):
        g_s = -float(grad) / (2 * n)
        return (grad_j(g_s) if y_j.grad_enabled else None,
                grad_k(g_s) if y_k.grad_enabled else None)

    return T.node(value, (y_j, y_k), backward)


def combined_loss(z_j, z_k, y_j, y_k, weights: LossWeights) -> LossBreakdown:
    """Weighted sum of the three losses, differentiable end to end.

    ``alpha * mde + beta * msp`` is one ``weighted_sum`` node and ``mim`` joins
    it by ``add``, so each y batch sums its gradient as (encoder + mde) + msp;
    folding ``mim`` into the node would sum (mde + msp) + encoder instead.
    """
    sizes = {np.asarray(a.data if isinstance(a, T.Tensor) else a).shape[0]
             for a in (z_j, z_k, y_j, y_k)}
    if len(sizes) != 1:
        raise ContractError(f"combined_loss: inconsistent batch sizes {sorted(sizes)}")
    mim = loss_mim(z_j, z_k, weights.tau)
    mde = loss_mde(y_j, y_k)
    msp = loss_msp(y_j, y_k)
    total = T.add(mim, T.weighted_sum([(mde, weights.alpha), (msp, weights.beta)]))
    return LossBreakdown(mim=mim.item(), mde=mde.item(), msp=msp.item(),
                         total=total.item(), total_node=total)


def schedule_weight(epoch, total_epochs, initial):
    """Geometric interpolation from the initial weight at epoch 0 to 1 at the last epoch.

    w(e) = initial^((E-1-e)/(E-1)); exactly `initial` at e=0 and exactly 1 at
    e=E-1, as IEEE pow gives x**1.0 == x and x**0.0 == 1. A single-epoch run
    uses weight 1.
    """
    if total_epochs < 1:
        raise ContractError("schedule_weight: total_epochs must be >= 1")
    if not 0 <= epoch < total_epochs:
        raise ContractError(f"schedule_weight: epoch {epoch} outside [0, {total_epochs})")
    if not 0 < initial <= 1:
        raise ContractError("schedule_weight: initial weight must be in (0, 1]")
    if total_epochs == 1:
        return 1.0
    exponent = (total_epochs - 1 - epoch) / (total_epochs - 1)
    return float(initial ** exponent)
