"""The three training losses and their scheduled combination.

All three are cosine-based: a temperature-scaled contrastive term over the
cross-modal embeddings z, a negative-softplus alignment term that pulls each
aligned pair of modal features y together, and a within-modality
nearest-neighbor cosine term over each modality's y. The contrastive
denominator sums only over the other tuples of the batch (the positive pair
is excluded).

Each loss takes every modality of a batch as one (M, T, D) stack and returns
a vector of P = M(M-1)/2 values, one per unordered modality pair (j, k),
j < k, in lexicographic order; ``combined_loss`` averages the pairs. Work
that depends on one operand runs once over the whole stack: row norms, unit
rows, the nearest-neighbor search and its cosine gradients, the cosine
gradients of both sides of every pair, and the unit-row backward.

Each loss is one fused autodiff node (``tensor.node``): the value is computed
with NumPy and one closure returns the hand-derived gradient of the stack.
With a batch of T rows and s a cosine similarity, for each pair:

- loss_mim: on the logits S = U_j U_k^T / tau of the row-normalised
  batches, dL/dS = (P_row + P_col - 2I) / (2T), where P_row and P_col are the
  row- and column-softmax over the denominator's entries; it is taken back
  through S and through U = Z / |Z| row by row.
- loss_mde: dL/ds_i = -sigmoid(s_i) / T, times the cosine gradient of pair i.
- loss_msp: dL/ds_i = -1 / (2T), times the cosine gradient, whose neighbor
  half is scatter-added onto the chosen neighbors.

Summation order. Every per-pair value and every per-pair gradient piece is
computed by the float operations of a 2-D pair loss. A modality's gradient
is the sum of its pieces from the pairs it enters, added in pair order, the
first piece stored rather than added to zeros (which would turn a -0.0 into
0.0); ``loss_mim`` sums the gradients at the unit rows before the unit-row
backward, and ``loss_msp`` sums each modality's upstream pair gradients
before its cosine backward. At M = 2 each modality enters one pair, so
nothing is summed and every value and gradient is bit-identical to the 2-D
pair losses (tests/reference_ops.py). At M >= 3 the sums can differ from a
loss-by-loss graph in the last bit.

Dead rows. A model can output a zero row (a tuple whose ReLU units are all
off), so the losses are total: ``row_squares``, whose squared row norms every
loss takes, gives a row of norm at most ``NORM_EPS`` the squared norm +inf. Its
unit row (z / inf), every cosine it enters (dot / inf) and every gradient it
sends or receives are then exactly 0; a live row goes through the float
operations it would go through without it, and in ``loss_msp`` a row whose
other rows are all dead takes a dead one as its neighbor.

``combined_loss`` computes the squared norms of z and y once, hands y's to both
``loss_mde`` and ``loss_msp``, joins their weighted values with one
``tensor.weighted_sum`` node, adds ``loss_mim`` to it and averages the pairs
with ``tensor.mean``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, check_fields


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


@functools.cache
def _pairs(m):
    """The pair plan of m modalities, as (sides, first, rest).

    Pair p's two sides are slots 2p (its j) and 2p + 1 (its k); ``sides`` indexes
    each slot's modality. ``first`` indexes each modality's first slot, and ``rest``
    lists every other slot as (slot, modality), in slot order."""
    owners = [i for j in range(m) for k in range(j + 1, m) for i in (j, k)]
    first = [owners.index(i) for i in range(m)]
    rest = tuple((slot, i) for slot, i in enumerate(owners) if slot != first[i])
    sides, first = np.array(owners), np.array(first)
    sides.flags.writeable = first.flags.writeable = False   # cached: every call shares them
    return sides, first, rest


def _by_modality(slots, m):
    """The (M, ...) sums of the (2P, ...) pair slots by modality: each modality's slots
    added in slot order, the first one stored rather than added to zeros."""
    _, first, rest = _pairs(m)
    out = slots[first]
    for slot, i in rest:
        out[i] += slots[slot]
    return out


def row_squares(x):
    """Squared row norms of a stack, (M, T) of (M, T, D); +inf for a dead row."""
    sq = np.add.reduce(x * x, axis=-1)
    sq[np.sqrt(sq) <= T.NORM_EPS] = np.inf
    return sq


def _stack(x, name, min_rows):
    """``x`` as a Tensor stack of two or more modality batches of ``min_rows`` or more rows."""
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    if x.data.ndim != 3 or len(x.data) < 2:
        raise ContractError(f"{name}: need a stack of 2 or more modality batches, "
                            f"got shape {x.data.shape}")
    if x.data.shape[1] < min_rows:
        raise ContractError(f"{name}: need batch size >= {min_rows}")
    return x


def _cosine_grad(a, b, s, denom, saa):
    """ds/da of the row cosines s = <a, b> / sqrt(|a|^2 |b|^2), denom = sqrt(|a|^2 |b|^2)."""
    return b / denom[..., None] - s[..., None] * a / saa[..., None]


def _unit_rows_backward(grad_u, u, norms):
    """Gradient through u = x / |x| row by row, given the gradient at u."""
    return (grad_u - np.add.reduce(grad_u * u, axis=-1, keepdims=True) * u) / norms[..., None]


def loss_mim(z, sq, tau):
    """Symmetric contrastive loss of each modality pair over both retrieval directions,
    averaged over tuples; ``sq`` holds the stack's squared row norms (``row_squares``).

    Per tuple i and direction j->k: -log(exp(S_ii) / sum_q exp(S_iq)) with
    S = cos / tau, the sum over q != i; k->j is the same on the columns of S.
    """
    z = _stack(z, "loss_mim", min_rows=2)
    norms = np.sqrt(sq)
    m, n, dim = z.data.shape
    u = z.data / norms[:, :, None]
    pair_u = u[_pairs(m)[0]].reshape(-1, 2, n, dim)   # (P, 2, T, D): each pair's j and k
    u_j, u_k = pair_u[:, 0], pair_u[:, 1]
    logits = np.matmul(u_j, u_k.mT) * (1.0 / tau)
    masked = logits.copy()
    masked.reshape(-1, n * n)[:, ::n + 1] = -np.inf   # each pair's diagonal
    # direction j->k reads the rows of the logits; k->j reads the columns
    row_max = masked.max(axis=2, keepdims=True)
    exp_row = np.exp(masked - row_max)
    row_sum = exp_row.sum(axis=2, keepdims=True)
    col_max = masked.max(axis=1, keepdims=True)
    exp_col = np.exp(masked - col_max)
    col_sum = exp_col.sum(axis=1, keepdims=True)
    lse = ((row_max + np.log(row_sum))[:, :, 0].sum(axis=1)
           + (col_max + np.log(col_sum))[:, 0].sum(axis=1))
    values = (lse - 2.0 * np.trace(logits, axis1=1, axis2=2)) * (1.0 / (2 * n))

    def backward(grad):
        g_logits = exp_row / row_sum + exp_col / col_sum
        g_logits.reshape(-1, n * n)[:, ::n + 1] -= 2.0  # the positives
        g_logits *= (grad / (2 * n * tau))[:, None, None]
        g_u = np.empty_like(pair_u)
        np.matmul(g_logits, u_k, out=g_u[:, 0])
        np.matmul(g_logits.mT, u_j, out=g_u[:, 1])
        return (_unit_rows_backward(_by_modality(g_u.reshape(-1, n, dim), m), u, norms),)

    return T.node(values, (z,), backward)


def loss_mde(y, sq):
    """Negative mean softplus of aligned-pair cosine similarity, per modality pair;
    ``sq`` holds the stack's squared row norms (``row_squares``).

    Bounded in [-ln(1+e), -ln(1+1/e)]; minimized when every aligned pair is
    perfectly aligned (cosine 1), so it pulls each pair together.
    """
    y = _stack(y, "loss_mde", min_rows=1)
    m, n, dim = y.data.shape
    sides = _pairs(m)[0]
    pair_y = y.data[sides].reshape(-1, 2, n, dim)   # (P, 2, T, D): each pair's j and k
    pair_sq = sq[sides].reshape(-1, 2, n)
    denom = np.sqrt(pair_sq[:, 0] * pair_sq[:, 1])
    s = np.add.reduce(pair_y[:, 0] * pair_y[:, 1], axis=2) / denom
    values = -(np.add.reduce(np.logaddexp(0.0, s), axis=1) / n)

    def backward(grad):
        g_s = (-grad[:, None] / n) * (1.0 / (1.0 + np.exp(-s)))  # times sigmoid(s)
        # both sides of every pair at once: side j's partner is k, side k's is j
        g = _cosine_grad(pair_y, pair_y[:, ::-1], s[:, None], denom[:, None], pair_sq)
        g *= g_s[:, None, :, None]
        return (_by_modality(g.reshape(-1, n, dim), m),)

    return T.node(values, (y,), backward)


def _nearest_neighbor_indices(y, sq):
    """Index of each row's within-batch Euclidean nearest neighbor (self excluded), in
    each modality of the stack: (M, T).

    sq holds the squared row norms. Ties break to the lowest index via
    argmin. The selection is a constant of the batch: no gradient flows
    through the choice itself.
    """
    n = y.shape[1]
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * np.matmul(y, y.mT)
    d2.reshape(-1, n * n)[:, ::n + 1] = np.inf   # each modality's diagonal
    idx = np.argmin(d2, axis=2)
    idx[:, 0] += idx[:, 0] == 0   # every other row dead (all d2 inf): row 0 takes row 1
    return idx


def _neighbor_cosines(y, sq):
    """Cosine of each row to its nearest neighbor, (M, T), and the closure for its
    gradient, which takes one upstream gradient per modality."""
    m, n, dim = y.shape
    rows = _nearest_neighbor_indices(y, sq) + (np.arange(m) * n)[:, None]   # of (M*T) rows
    nb, sq_nb = y.reshape(m * n, dim)[rows], sq.reshape(m * n)[rows]
    denom = np.sqrt(sq * sq_nb)
    s = np.add.reduce(y * nb, axis=2) / denom

    def grad(g_s):
        g_s = g_s[:, None, None]
        out = g_s * _cosine_grad(y, nb, s, denom, sq)
        # np.add.at over the flat elements, in the order of the rows' add.at: it has a
        # fast path for one index per element, not for one per row
        np.add.at(out.reshape(-1), (rows.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1),
                  (g_s * _cosine_grad(nb, y, s, denom, sq_nb)).reshape(-1))
        return out

    return s, grad


def loss_msp(y, sq):
    """Negative mean cosine similarity of each row to its nearest within-modality
    neighbor, over both modalities of each pair; ``sq`` holds the stack's squared row
    norms (``row_squares``)."""
    y = _stack(y, "loss_msp", min_rows=2)
    m, n, _ = y.data.shape
    s, grad_s = _neighbor_cosines(y.data, sq)
    pair_sums = np.add.reduce(s, axis=1)[_pairs(m)[0]].reshape(-1, 2)
    values = -((pair_sums[:, 0] + pair_sums[:, 1]) / (2 * n))

    def backward(grad):
        g_s = -grad / (2 * n)   # each pair hands both its modalities this gradient
        return (grad_s(_by_modality(np.repeat(g_s, 2), m)),)

    return T.node(values, (y,), backward)


def combined_loss(z, y, weights: LossWeights) -> LossBreakdown:
    """Weighted sum of the three losses per modality pair, averaged over the pairs,
    differentiable end to end; the breakdown's values are each term's pair mean.

    ``alpha * mde + beta * msp`` is one ``weighted_sum`` node and ``mim`` joins
    it by ``add``, so the y stack sums its gradient as (encoder + mde) + msp;
    folding ``mim`` into the node would sum (mde + msp) + encoder instead.
    """
    z, y = (a if isinstance(a, T.Tensor) else T.Tensor(a) for a in (z, y))
    if z.data.shape[:2] != y.data.shape[:2]:
        raise ContractError(f"combined_loss: inconsistent batch sizes, z stack "
                            f"{z.data.shape[:2]} and y stack {y.data.shape[:2]}")
    z, y = _stack(z, "loss_mim", min_rows=2), _stack(y, "loss_mde", min_rows=1)
    mim = loss_mim(z, row_squares(z.data), weights.tau)
    sq = row_squares(y.data)
    mde, msp = loss_mde(y, sq), loss_msp(y, sq)
    total = T.mean(T.add(mim, T.weighted_sum([(mde, weights.alpha), (msp, weights.beta)])))
    pair_mean = lambda loss: sum(loss.data.tolist()) / len(loss.data)
    return LossBreakdown(mim=pair_mean(mim), mde=pair_mean(mde), msp=pair_mean(msp),
                         total=total.item(), total_node=total)


def schedule_weight(epoch, total_epochs, initial):
    """Geometric interpolation from the initial weight at epoch 0 to 1 at the last epoch.

    w(e) = initial^((E-1-e)/(E-1)); exactly `initial` at e=0 and exactly 1 at
    e=E-1, as IEEE pow gives x**1.0 == x and x**0.0 == 1. A single-epoch run
    uses weight 1.
    """
    if not 0 <= epoch < total_epochs:
        raise ContractError(f"schedule_weight: epoch {epoch} outside [0, {total_epochs})")
    if not 0 < initial <= 1:
        raise ContractError("schedule_weight: initial weight must be in (0, 1]")
    if total_epochs == 1:
        return 1.0
    exponent = (total_epochs - 1 - epoch) / (total_epochs - 1)
    return float(initial ** exponent)
