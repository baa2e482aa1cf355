"""Code that no command reaches, for tests: the autodiff primitives ``matmul`` and
``add_rowvec``, the chain that ``tensor.dense`` must match bit for bit, and
``tsum``, the scalar reducer of gradient checks; and the per-tensor Adam step and
checkpoint writer, which ``trainer.adam_step`` and ``trainer.save_checkpoint``
must match byte for byte."""

from dataclasses import asdict

import numpy as np

from xmodal.data import write_container
from xmodal.errors import ContractError, ShapeMismatchError
from xmodal.tensor import _as_tensor, node
from xmodal.trainer import CHECKPOINT_MAGIC, _manifest


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
