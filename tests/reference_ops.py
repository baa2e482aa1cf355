"""Code that no command reaches, for tests.

- The general autodiff primitives: the elementwise ``sub``, ``mul``, ``tanh``,
  ``relu``, ``softplus``, ``exp`` and ``log`` (with its ``DomainError``), the
  ``elementwise`` dispatcher, and the vector ops ``dot``, ``l2_normalize`` (with
  its ``DegenerateVectorWarning``) and ``cosine_similarity``, each tested
  against finite differences.
- ``matmul`` and ``add_rowvec``: with ``tanh`` and ``relu``, the chain that
  ``tensor.dense`` must match bit for bit.
- ``tsum``, the scalar reducer of gradient checks.
- The per-tensor Adam step and checkpoint writer, which ``trainer.adam_step``
  and ``trainer.save_checkpoint`` must match byte for byte.
"""

import warnings
from dataclasses import asdict

import numpy as np

from xmodal.data import write_container
from xmodal.errors import ContractError, DegenerateInputError, ShapeMismatchError, XmodalError
from xmodal.tensor import NORM_EPS, _as_tensor, _require_same_shape, add, node, scale
from xmodal.trainer import CHECKPOINT_MAGIC, _manifest


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
    for name, tensor in params.named_tensors():
        g, m, v = grads[name], state.m[name], state.v[name]
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
    tables = {"param": {name: t.data for name, t in params.named_tensors()},
              "adam_m": adam_state.m, "adam_v": adam_state.v}
    manifest = _manifest(params.config)
    write_container(path, CHECKPOINT_MAGIC,
                    {"model_config": asdict(params.config), "epoch": int(epoch),
                     "adam_step": int(adam_state.step), "tensors": manifest},
                    (np.asarray(tables[e["kind"]][e["name"]], "<f8").tobytes() for e in manifest))
