"""Dense float64 tensors with reverse-mode differentiation.

The graph is rebuilt on every forward pass: each Tensor produced by an
operation keeps references to its parents and a closure that propagates the
upstream gradient to them. ``backward`` walks the graph in reverse
topological order, so every node is visited exactly once and fan-out is
accumulated by summation.

Only grad-enabled tensors take part in the reverse pass. ``backward`` never
visits a constant parent, and a closure may return None in a constant
operand's slot: ``dense`` does, so a backbone's first layer forms no
``grad @ W.T`` for the raw feature batch it multiplies.

A computation with a hand-derived backward, such as each training loss in
``losses``, is one ``node``: its value is computed with NumPy and one closure
returns the gradients of all its operands. A training step carries every
modality of its batch as one ``(M, T, D)`` stack: the model builds each layer
as one ``dense`` node over the stack, which multiplies modality m's slice by
its own weight slice (a backbone) or by one shared weight (the encoder), so
each slice runs the product a 2-D batch would. ``combined_loss`` joins the
weighted auxiliary losses with one ``weighted_sum`` node, which takes their
place in the graph and calls their closures itself, adds the contrastive loss
with ``add``, and averages the modality pairs with ``mean``.
"""

import numpy as np

from .errors import ContractError, ShapeMismatchError

NORM_EPS = 1e-12


class Tensor:
    """Immutable-by-convention float64 array participating in autodiff."""

    __slots__ = ("data", "grad_enabled", "grad", "_parents", "_backward")

    def __init__(self, data, grad_enabled=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad_enabled = bool(grad_enabled)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad_enabled={self.grad_enabled})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    if any(p.grad_enabled for p in parents):
        return Tensor(data, grad_enabled=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def node(data, parents, backward_fn):
    """One graph node whose value was computed outside this module.

    ``parents`` are Tensors; ``backward_fn(grad)`` returns one gradient per
    parent, in order, and may return None for a parent that is not
    grad-enabled.
    """
    return _make(data, parents, backward_fn)


def _require_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"{op}: operand shapes {a.data.shape} != {b.data.shape}")


def add(a, b):
    """``a + b`` of two Tensors of one shape."""
    _require_same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def _sum_slices(a):
    """``a[0] + a[1] + ...``, added in that order."""
    total = a[0]
    for part in a[1:]:
        total = total + part
    return total


def mean(a):
    """The mean of a vector as one node: its elements added left to right, the sum times
    ``1 / len``; the backward hands every element ``grad / len`` the same way."""
    if a.data.ndim != 1 or not a.data.size:
        raise ShapeMismatchError(f"mean: need a non-empty vector, got shape {a.data.shape}")
    c = 1.0 / a.data.size
    return _make(_sum_slices(a.data) * c, (a,), lambda g: (np.full(a.data.shape, g * c),))


def weighted_sum(terms):
    """``t0*c0 + t1*c1 + ...`` over ``[(tensor, c), ...]`` as one node, added left to right.

    The node takes its terms' place in the graph: its parents are each
    grad-enabled term's parents, in order (a grad-enabled leaf term is its own
    parent), and its backward calls each term's closure with ``grad * c``, the
    value ``scale`` would pass it. ``backward`` never visits the terms
    themselves, and a parent that several terms share fills one slot per term.
    If every term is constant, so is the sum.
    """
    terms = [(_as_tensor(t), float(c)) for t, c in terms]
    if not terms:
        raise ContractError("weighted_sum: no terms")
    (first, c0), rest = terms[0], terms[1:]
    out = first.data * c0
    for t, c in rest:
        _require_same_shape(first, t, "weighted_sum")
        out = out + t.data * c
    parents, pieces = [], []
    for t, c in terms:
        if t.grad_enabled:
            slots = t._parents if t._backward is not None else (t,)
            parents.extend(slots)
            pieces.append((t._backward, c, len(slots)))

    def backward(grad):
        grads = []
        for fn, c, n in pieces:
            g = grad * c
            part = (g,) if fn is None else tuple(fn(g))
            grads.extend(part + (None,) * (n - len(part)))
        return grads

    return _make(out, parents, backward)


def _dense_value(x, w, b, activation):
    """``dense``'s value on arrays, formed in the product's own array, and for "relu" the
    mask of its positive entries (else None); ``model.forward_values`` runs its layers
    on this."""
    out = np.matmul(x, w)   # each step below writes into this one array
    out += b if w.ndim == 2 else b[:, None, :]
    pos = None
    if activation == "tanh":
        np.tanh(out, out=out)
    elif activation == "relu":
        pos = out > 0
        out[~pos] = 0.0   # a store, not a product, which would leave -0.0 and NaN
    elif activation is not None:
        raise ContractError(f"dense: unknown activation {activation!r}")
    return out, pos


def dense(x, w, b, activation=None):
    """One layer, ``activation(x @ w + b)``, as a single node.

    ``x`` is one batch (T, in) or a stack of M modality batches (M, T, in).
    A stack takes per-modality weights, ``w`` (M, in, out) and ``b`` (M, out),
    each slice multiplied by its own, or one shared ``w`` (in, out) and ``b``
    (out,); the shared weight's gradient is the modality slices' gradients
    added in modality order. ``activation`` is "tanh", "relu" or None. The
    value and the gradients take each element of each slice through the same
    float operations, in the same order, as a chain of separate matrix-product,
    bias-add and ``tanh``/``relu`` nodes over that slice's 2-D batch (the
    tests' reference), so both are bit-identical to it; the value is formed in
    the product's own array. The backward forms ``g @ w.T`` only for a
    grad-enabled ``x``.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xs, ws, bs = x.data.shape, w.data.shape, b.data.shape
    shared = w.data.ndim == 2
    if (x.data.ndim not in (2, 3) or w.data.ndim not in (2, x.data.ndim)
            or b.data.ndim != w.data.ndim - 1 or xs[-1] != ws[-2] or ws[-1] != bs[-1]
            or (not shared and not xs[0] == ws[0] == bs[0])):
        raise ShapeMismatchError(f"dense: shapes {xs}, {ws} and {bs}")
    out, pos = _dense_value(x.data, w.data, b.data, activation)
    if activation == "tanh":
        local = lambda g: g * (1.0 - out * out)
    elif activation == "relu":
        local = lambda g: g * pos
    else:
        local = lambda g: g
    summed = shared and x.data.ndim == 3   # one weight for every modality slice

    def backward(grad):
        g = local(grad)
        gw = np.matmul(x.data.mT, g) if w.grad_enabled else None
        gb = g.sum(axis=-2) if b.grad_enabled else None
        if summed:
            gw = None if gw is None else _sum_slices(gw)
            gb = None if gb is None else _sum_slices(gb)
        return (np.matmul(g, w.data.mT) if x.grad_enabled else None, gw, gb)

    return _make(out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss):
    """Backpropagate from a scalar tensor; returns None, the gradients land on ``.grad``.

    Each call sets ``.grad`` to an array made in this call on ``loss`` and on every
    grad-enabled tensor it reaches (zeros for a reached leaf that receives none).
    Constants and unreached tensors keep theirs, so the trainer, which reads its
    parameters' ``.grad``, relies on each batch loss reaching every backbone and the
    encoder.

    A parent may fill several slots of one node (``weighted_sum``'s terms share
    their operands); its gradients are added slot by slot, in order. The first
    gradient to reach a tensor is kept as the closure returned it, not copied:
    ``add`` hands both parents one array. No closure writes into a gradient it receives, and a sum makes a new array, so
    the sharing is never seen in a value.
    """
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("backward: loss must be a scalar Tensor")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            # not a fast path: a node can be pushed twice before it is expanded (a
            # parent in two slots of weighted_sum, one per term), and a second
            # expansion would hand on its gradient twice
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p.grad_enabled and p not in seen:
                stack.append((p, False))

    grads = {loss: np.array(1.0)}
    for node in reversed(order):
        g = grads.get(node)
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.grad_enabled:
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = np.asarray(pg, dtype=np.float64)

    for node in order:
        node.grad = grads.get(node)
        if node.grad is None and not node._parents:
            node.grad = np.zeros_like(node.data)


def finite_diff_grad(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function at x.

    f receives a plain (non-tracked) Tensor and returns a scalar Tensor or
    float. Used as the independent oracle for all analytic gradients.
    """
    if h <= 0:
        raise ContractError("finite_diff_grad: h must be positive")
    x = _as_tensor(x)
    base = x.data
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    for i in range(base.size):
        bumped = base.reshape(-1).copy()
        bumped[i] += h
        fp = f(Tensor(bumped.reshape(base.shape)))
        bumped[i] -= 2 * h
        fm = f(Tensor(bumped.reshape(base.shape)))
        fp = fp.item() if isinstance(fp, Tensor) else float(fp)
        fm = fm.item() if isinstance(fm, Tensor) else float(fm)
        flat[i] = (fp - fm) / (2 * h)
    return Tensor(grad)


def rel_error(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise maximum over arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
