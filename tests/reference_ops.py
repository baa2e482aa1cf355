"""Code that no command reaches, for tests.

- The general autodiff primitives: the elementwise ``sub``, ``mul``, ``tanh``,
  ``relu``, ``softplus``, ``exp`` and ``log`` (with its ``DomainError``), the
  ``elementwise`` dispatcher, and the vector ops ``dot``, ``l2_normalize`` (with
  its ``DegenerateVectorWarning``) and ``cosine_similarity``, each tested
  against finite differences.
- ``matmul`` and ``add_rowvec``: with ``tanh`` and ``relu``, the chain that
  ``tensor.dense`` must match bit for bit.
- ``tsum``, the scalar reducer of gradient checks, and ``scale``.
- The per-tensor Adam step and checkpoint writer, which ``trainer.adam_step``
  and ``trainer.save_checkpoint`` must match byte for byte.
- The per-modality training graph that the stacked one replaced: the 2-D pair
  losses ``pair_loss_mim``, ``pair_loss_mde``, ``pair_loss_msp`` and
  ``pair_combined_loss``, and ``batch_loss``, which runs each modality's
  backbone and the encoder on its own 2-D batch over per-tensor leaves
  (``param_views``), combines every modality pair and averages the pairs with
  ``add`` and ``scale``. At two modalities the stacked step must match it bit
  for bit.
- ``stack``, equal-shape tensors as one stack that hands each its slice of the
  gradient, and ``mim2``, ``mde2``, ``msp2`` and ``combined2``: the package's
  stacked losses called on two 2-D operands, stacked into one two-modality batch.
"""

import warnings
from dataclasses import asdict

import numpy as np

from xmodal import tensor as T
from xmodal.data import write_container
from xmodal.errors import ContractError, DegenerateInputError, ShapeMismatchError, XmodalError
from xmodal.losses import (LossBreakdown, combined_loss, loss_mde, loss_mim, loss_msp,
                           row_squares)
from xmodal.model import leaf_views, param_layout
from xmodal.tensor import NORM_EPS, _as_tensor, _require_same_shape, add, node
from xmodal.trainer import CHECKPOINT_MAGIC, _manifest


def scale(a, c):
    """Multiply by a python scalar constant."""
    a = _as_tensor(a)
    c = float(c)
    return node(a.data * c, (a,), lambda g: (g * c,))


class DomainError(XmodalError):
    """Input lies outside the mathematical domain of the operation."""


class DegenerateVectorWarning(UserWarning):
    """Raised when l2_normalize receives a (near-)zero vector."""


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "sub")
    return node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "mul")
    return node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def tanh(a):
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return node(t, (a,), lambda g: (g * (1.0 - t * t),))


def relu(a):
    a = _as_tensor(a)
    pos = a.data > 0
    return node(np.where(pos, a.data, 0.0), (a,), lambda g: (g * pos,))


def softplus(a):
    """log(1 + e^x), computed stably."""
    a = _as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def backward(grad):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        return (grad * sig,)

    return node(out, (a,), backward)


def exp(a):
    a = _as_tensor(a)
    e = np.exp(a.data)
    return node(e, (a,), lambda g: (g * e,))


def log(a):
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: non-positive input")
    return node(np.log(a.data), (a,), lambda g: (g / a.data,))


_ELEMENTWISE = {"add": add, "sub": sub, "mul": mul, "scale": scale,
                "tanh": tanh, "relu": relu, "softplus": softplus,
                "exp": exp, "log": log}


def elementwise(op_kind, *args):
    """Dispatch an elementwise primitive by name."""
    try:
        fn = _ELEMENTWISE[op_kind]
    except KeyError:
        raise ContractError(f"unknown elementwise op {op_kind!r}") from None
    return fn(*args)


def dot(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"dot: need equal-length vectors, got {a.data.shape} and {b.data.shape}")
    return node(a.data @ b.data, (a, b), lambda g: (float(g) * b.data, float(g) * a.data))


def l2_normalize(v):
    """Scale a vector to unit norm; near-zero vectors pass through with a warning.

    Vectors already within rounding of unit norm are returned unchanged, which
    makes normalization bit-exactly idempotent.
    """
    v = _as_tensor(v)
    if v.data.ndim != 1:
        raise ShapeMismatchError(f"l2_normalize: need a vector, got {v.data.shape}")
    n = float(np.linalg.norm(v.data))
    if n <= NORM_EPS:
        warnings.warn("l2_normalize: degenerate (near-zero) vector left unchanged",
                      DegenerateVectorWarning, stacklevel=2)
        return node(v.data.copy(), (v,), lambda g: (g,))
    u = v.data.copy() if abs(n - 1.0) < 1e-13 else v.data / n

    def backward(grad):
        return ((grad - (grad @ u) * u) / n,)

    return node(u, (v,), backward)


def cosine_similarity(u, v):
    """Cosine of the angle between two vectors; rejects near-zero inputs."""
    u, v = _as_tensor(u), _as_tensor(v)
    if u.data.shape != v.data.shape or u.data.ndim != 1:
        raise ShapeMismatchError(
            f"cosine_similarity: need equal-length vectors, got {u.data.shape} and {v.data.shape}")
    if np.linalg.norm(u.data) <= NORM_EPS or np.linalg.norm(v.data) <= NORM_EPS:
        raise DegenerateInputError("cosine_similarity: zero-norm input")
    return dot(l2_normalize(u), l2_normalize(v))


def matmul(a, b):
    """Matrix product with recorded gradients (none formed for a constant operand)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")

    def backward(grad):
        return (grad @ b.data.T if a.grad_enabled else None,
                a.data.T @ grad if b.grad_enabled else None)

    return node(a.data @ b.data, (a, b), backward)


def add_rowvec(a, b):
    """Add a row vector to every row of a matrix (bias broadcast)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 1 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"add_rowvec: shapes {a.data.shape} and {b.data.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def tsum(a):
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    return node(np.sum(a.data), (a,), lambda g: (np.full(a.data.shape, float(g)),))


def adam_step(params, grads, state,
              lr, b1=0.9, b2=0.999, eps=1e-8):
    """Bias-corrected Adam update, written in place into each parameter's array and
    its moment arrays; ``grads`` is only read.

    Each element goes through the same float operations, in the same order, as
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    data = data - lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps),
    so the result is bit-identical to that formula.
    """
    state.step += 1
    t = state.step
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    moments = leaf_views(params.config, state.m_flat), leaf_views(params.config, state.v_flat)
    for name, tensor in params.named_tensors():
        g, m, v = grads[name], moments[0][name], moments[1][name]
        if g.shape != tensor.data.shape:
            raise ContractError(f"adam_step: gradient shape mismatch for {name}")
        scratch = np.multiply(g, 1 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps                      # the denominator
        step = np.divide(m, c1)
        step *= lr
        step /= scratch
        tensor.data -= step
    return params, state


def save_checkpoint(params, adam_state, epoch, path):
    """The checkpoint written one tensor at a time, from each parameter's and each
    moment's own array."""
    tables = {kind: param_views(params.config, flat) for kind, flat in
              (("param", params.flat), ("adam_m", adam_state.m_flat),
               ("adam_v", adam_state.v_flat))}
    manifest = _manifest(params.config)
    write_container(path, CHECKPOINT_MAGIC,
                    {"model_config": asdict(params.config), "epoch": int(epoch),
                     "adam_step": int(adam_state.step), "tensors": manifest},
                    (np.asarray(tables[e["kind"]][e["name"]], "<f8").tobytes() for e in manifest))


# ---------------------------------------------------------------------------
# the per-modality training graph
# ---------------------------------------------------------------------------

def param_views(config, flat):
    """{name: array} of every ``param_layout`` tensor, each a reshaped view of ``flat``."""
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in param_layout(config)}


def _pair_operands(a, b, name, min_rows=1):
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
        if (np.sqrt(sq) <= NORM_EPS).any():
            raise DegenerateInputError(f"{name}: zero-norm row in batch")
        squares.append(sq)
    return a, b, squares[0], squares[1]


def _pair_cosine_grads(a, b, s, denom, saa, sbb):
    """ds/da and ds/db of the row cosines s = <a, b> / sqrt(|a|^2 |b|^2)."""
    return (b / denom[:, None] - s[:, None] * a / saa[:, None],
            a / denom[:, None] - s[:, None] * b / sbb[:, None])


def _pair_unit_rows_backward(grad_u, u, norms):
    return (grad_u - np.add.reduce(grad_u * u, axis=1, keepdims=True) * u) / norms[:, None]


def pair_loss_mim(z_j, z_k, tau):
    z_j, z_k, sq_j, sq_k = _pair_operands(z_j, z_k, "loss_mim", min_rows=2)
    n = z_j.data.shape[0]
    norms_j, norms_k = np.sqrt(sq_j), np.sqrt(sq_k)
    u_j = z_j.data / norms_j[:, None]
    u_k = z_k.data / norms_k[:, None]
    logits = (u_j @ u_k.T) * (1.0 / tau)
    masked = logits.copy()
    np.fill_diagonal(masked, -np.inf)
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
        g_logits.flat[::n + 1] -= 2.0
        g_logits *= float(grad) / (2 * n * tau)
        return (_pair_unit_rows_backward(g_logits @ u_k, u_j, norms_j)
                if z_j.grad_enabled else None,
                _pair_unit_rows_backward(g_logits.T @ u_j, u_k, norms_k)
                if z_k.grad_enabled else None)

    return node(value, (z_j, z_k), backward)


def pair_loss_mde(y_j, y_k):
    y_j, y_k, saa, sbb = _pair_operands(y_j, y_k, "loss_mde")
    n = y_j.data.shape[0]
    a, b = y_j.data, y_k.data
    denom = np.sqrt(saa * sbb)
    s = np.add.reduce(a * b, axis=1) / denom
    value = -(np.add.reduce(np.logaddexp(0.0, s)) / n)

    def backward(grad):
        g_s = (-float(grad) / n) * (1.0 / (1.0 + np.exp(-s)))
        ga, gb = _pair_cosine_grads(a, b, s, denom, saa, sbb)
        return (g_s[:, None] * ga if y_j.grad_enabled else None,
                g_s[:, None] * gb if y_k.grad_enabled else None)

    return node(value, (y_j, y_k), backward)


def _pair_neighbor_cosines(y, sq):
    d2 = sq[:, None] + sq[None, :] - 2.0 * (y @ y.T)
    np.fill_diagonal(d2, np.inf)
    idx = np.argmin(d2, axis=1)
    nb, sq_nb = y[idx], sq[idx]
    denom = np.sqrt(sq * sq_nb)
    s = np.add.reduce(y * nb, axis=1) / denom

    def grad(g_s):
        g_row, g_nb = _pair_cosine_grads(y, nb, s, denom, sq, sq_nb)
        out = g_s * g_row
        np.add.at(out, idx, g_s * g_nb)
        return out

    return s, grad


def pair_loss_msp(y_j, y_k):
    y_j, y_k, sq_j, sq_k = _pair_operands(y_j, y_k, "loss_msp", min_rows=2)
    n = y_j.data.shape[0]
    s_j, grad_j = _pair_neighbor_cosines(y_j.data, sq_j)
    s_k, grad_k = _pair_neighbor_cosines(y_k.data, sq_k)
    value = -((np.add.reduce(s_j) + np.add.reduce(s_k)) / (2 * n))

    def backward(grad):
        g_s = -float(grad) / (2 * n)
        return (grad_j(g_s) if y_j.grad_enabled else None,
                grad_k(g_s) if y_k.grad_enabled else None)

    return node(value, (y_j, y_k), backward)


def pair_combined_loss(z_j, z_k, y_j, y_k, weights):
    mim = pair_loss_mim(z_j, z_k, weights.tau)
    mde = pair_loss_mde(y_j, y_k)
    msp = pair_loss_msp(y_j, y_k)
    total = T.add(mim, T.weighted_sum([(mde, weights.alpha), (msp, weights.beta)]))
    return LossBreakdown(mim=mim.item(), mde=mde.item(), msp=msp.item(),
                         total=total.item(), total_node=total)


def per_tensor_leaves(params):
    """{name: grad-enabled Tensor} of every ``param_layout`` tensor, over ``params.flat``."""
    return {name: T.Tensor(a, grad_enabled=True)
            for name, a in param_views(params.config, params.flat).items()}


def batch_features(params, leaves, ds, rows, m):
    """Modality m's rows through its backbone, as a 2-D batch over ``leaves``."""
    config = params.config
    depth = len(config.backbone_hidden_dims) + 1
    h = T.Tensor(ds.features[m][rows])
    for li in range(depth):
        w, b = (leaves[f"backbone{m}.layer{li}.{p}"] for p in "Wb")
        h = T.dense(h, w, b, config.activation if li < depth - 1 else None)
    return h


def batch_loss(params, leaves, ds, rows, weights):
    """The per-modality graph of one batch over ``leaves`` (``per_tensor_leaves``)."""
    n = params.config.num_modalities
    ys = [batch_features(params, leaves, ds, rows, m) for m in range(n)]
    zs = [T.dense(y, leaves["encoder.W"], leaves["encoder.b"]) for y in ys]
    breakdowns = [pair_combined_loss(zs[j], zs[k], ys[j], ys[k], weights)
                  for j in range(n) for k in range(j + 1, n)]
    total = breakdowns[0].total_node
    for b in breakdowns[1:]:
        total = add(total, b.total_node)
    total = scale(total, 1.0 / len(breakdowns))
    mean = lambda key: sum(getattr(b, key) for b in breakdowns) / len(breakdowns)
    return LossBreakdown(mim=mean("mim"), mde=mean("mde"), msp=mean("msp"),
                         total=total.item(), total_node=total)


# ---------------------------------------------------------------------------
# the stacked losses on two 2-D operands
# ---------------------------------------------------------------------------

def stack(tensors):
    """Equal-shape tensors as one stack along a new leading axis; each gets its slice back."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("stack: no tensors")
    for t in tensors[1:]:
        _require_same_shape(tensors[0], t, "stack")
    return node(np.stack([t.data for t in tensors]), tensors, lambda g: tuple(g))


def mim2(z_j, z_k, tau):
    """``loss_mim`` of the two-modality stack of z_j and z_k, as a scalar."""
    z = stack([z_j, z_k])
    return T.mean(loss_mim(z, row_squares(z.data), tau))


def mde2(y_j, y_k):
    y = stack([y_j, y_k])
    return T.mean(loss_mde(y, row_squares(y.data)))


def msp2(y_j, y_k):
    y = stack([y_j, y_k])
    return T.mean(loss_msp(y, row_squares(y.data)))


def combined2(z_j, z_k, y_j, y_k, weights):
    """``combined_loss`` of the two-modality stacks; a tensor in two slots is stacked once."""
    z = stack([z_j, z_k])
    y = z if y_j is z_j and y_k is z_k else stack([y_j, y_k])
    return combined_loss(z, y, weights)
