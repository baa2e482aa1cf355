"""Mini-batch training under the combined objective, with Adam and checkpoints.

All backbones and the shared encoder are updated jointly in a single stage.
Batch order is keyed by (seed, epoch), so resuming from a checkpoint
reproduces the uninterrupted run bit-exactly.
"""

import contextlib
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import batch_iter, read_container, stack_features, write_atomic, write_container
from .errors import CheckpointError, ContractError, TrainingDivergedError, check_fields
from .losses import LossWeights, combined_loss, schedule_weight
from .model import (ModelConfig, ModelParams, check_dataset, forward_backbone, forward_encoder,
                    forward_values, init_params, leaf_views, param_count, param_layout)

CHECKPOINT_MAGIC = b"XMSSL1"
KINDS = ("param", "adam_m", "adam_v")   # the checkpoint's roles, in payload order


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    tau: float = 0.2
    alpha0: float = 1e-4
    beta0: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 0    # 0 = final checkpoint only
    fixed_alpha: float = None    # set to pin alpha for the whole run (e.g. ablations)
    fixed_beta: float = None

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.checkpoint_every < 0:
            raise ContractError("checkpoint_every must be >= 0")
        if self.batch_size < 2:
            raise ContractError("batch_size must be >= 2")
        if self.learning_rate < 0:
            raise ContractError("learning_rate must be >= 0")
        for name, w0 in (("alpha0", self.alpha0), ("beta0", self.beta0)):
            if not 0 < w0 <= 1:
                raise ContractError(f"{name} must be in (0, 1]")


class AdamState:
    """Adam's first and second moments, plus the step count; by default zero moments at
    step 0. Each moment vector (``m_flat``, ``v_flat``; the ``m`` and ``v`` arguments)
    holds every tensor's moments in ``param_layout`` order."""

    def __init__(self, params: ModelParams, step=0, m=None, v=None):
        n = params.flat.size
        self.step = step
        self.m_flat = np.zeros(n) if m is None else m
        self.v_flat = np.zeros(n) if v is None else v
        # adam_step's gradient vector, with its leaf views, and its work vector; made by
        # its first call and kept: fresh vectors would be re-faulted each step
        self.grad_flat = self.grad = self.scratch = None


@dataclass
class EpochStats:
    epoch: int
    mim: float
    mde: float
    msp: float
    total: float
    alpha: float
    beta: float
    val_total: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)

    def to_csv(self, path):
        """One row per epoch; it holds no wall time, so reruns are byte-identical."""
        write_atomic(path, ["epoch,mim,mde,msp,total,alpha,beta,val_total\n", *(
            f"{e.epoch},{e.mim:.17g},{e.mde:.17g},{e.msp:.17g},{e.total:.17g},"
            f"{e.alpha:.17g},{e.beta:.17g},{e.val_total:.17g}\n" for e in self.epochs)])


def adam_step(params: ModelParams, grads, state: AdamState,
              lr, b1=0.9, b2=0.999, eps=1e-8):
    """Bias-corrected Adam update, written in place into the parameter vector and the
    moment vectors in one pass over each; ``grads`` ({name: array} of every leaf) is
    only read, through a copy into the leaf views of one gradient vector.

    Each element goes through the same float operations, in the same order, as
    m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    data = data - lr*(m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps),
    so the result is bit-identical to that formula.
    """
    if state.grad_flat is None:
        state.grad_flat, state.scratch = np.empty((2, params.flat.size))
        state.grad = leaf_views(params.config, state.grad_flat)
    for name, view in state.grad.items():   # each leaf's gradient into its view
        grad = grads[name]
        if grad.shape != view.shape:
            raise ContractError(f"adam_step: gradient shape mismatch for {name}")
        view[...] = grad
    g, scratch = state.grad_flat, state.scratch
    state.step += 1
    t = state.step
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    m, v = state.m_flat, state.v_flat
    np.multiply(g, 1 - b1, out=scratch)
    m *= b1
    m += scratch
    np.multiply(g, 1 - b2, out=scratch)
    scratch *= g
    v *= b2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps                      # the denominator
    step = np.divide(m, c1, out=g)      # g is read for the last time above
    step *= lr
    step /= scratch
    params.flat -= step
    return params, state


def _batch_loss(params, ds, rows, weights):
    """Forward every modality of the given rows as one stack and evaluate the combined
    loss, averaged over all unordered modality pairs (one pair by default)."""
    y = forward_backbone(params, stack_features(ds, rows))
    return combined_loss(forward_encoder(params, y), y, weights)


def _validation_loss(params, ds_val, train_config):
    """Mean batch loss on the validation set at alpha = beta = 1.

    Fixed weights keep the number comparable across epochs; batch order is a
    fixed permutation of the validation set (epoch key 0). The model runs
    ``forward_values`` on the parameters' arrays, so no graph is recorded and no
    parameter's ``.grad`` changes.
    """
    weights = LossWeights(alpha=1.0, beta=1.0, tau=train_config.tau)
    totals, count = 0.0, 0
    for rows in batch_iter(ds_val, train_config.batch_size, train_config.seed, 0):
        y, z = forward_values(params, stack_features(ds_val, rows))
        totals += combined_loss(z, y, weights).total
        count += 1
    return totals / count if count else float("nan")


def _vectors(params: ModelParams, adam_state: AdamState):
    """The training state's three vectors, in checkpoint order."""
    return params.flat, adam_state.m_flat, adam_state.v_flat


def _nonfinite_tensor(config: ModelConfig, vectors):
    """'<kind> <name>' of the first tensor, in checkpoint order, that holds a NaN or an
    infinity, found by its offset in ``vectors`` (the parameter, adam_m and adam_v
    vectors); None if every value is finite."""
    for kind, values in zip(KINDS, vectors):
        finite = np.isfinite(values)
        if not finite.all():
            at = np.argmin(finite)   # the first bad value
            return f"{kind} {next(name for name, *_, stop in param_layout(config) if at < stop)}"
    return None


@contextlib.contextmanager
def _out_dir(path):
    """Creates directory ``path`` and its missing parents; if the body raises, removes
    again those of them that it left empty, innermost first."""
    made, head = [], os.path.abspath(path)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for directory in made:
            if os.listdir(directory):
                break
            os.rmdir(directory)
        raise


def train(ds_train, ds_val, model_config: ModelConfig, train_config: TrainConfig,
          out_dir=None, resume_from=None):
    """Full training run; returns the final parameters and the per-epoch report."""
    check_dataset(model_config, ds_train)

    start_epoch = 0
    if resume_from is not None:
        params, adam_state, completed, ckpt_config = load_checkpoint(resume_from)
        if ckpt_config != model_config:
            raise CheckpointError("checkpoint model config differs from requested config")
        start_epoch = completed + 1
        if start_epoch >= train_config.epochs:
            raise ContractError(
                f"{resume_from}: checkpoint already completed the {train_config.epochs} "
                f"requested epochs (its last epoch is {completed})")
    else:
        params = init_params(model_config)
        adam_state = AdamState(params)

    # a run that fails removes the directories it made and left empty
    with _out_dir(out_dir) if out_dir is not None else contextlib.nullcontext():
        report = TrainReport()
        cfg = train_config
        for epoch in range(start_epoch, cfg.epochs):
            alpha = cfg.fixed_alpha if cfg.fixed_alpha is not None else \
                schedule_weight(epoch, cfg.epochs, cfg.alpha0)
            beta = cfg.fixed_beta if cfg.fixed_beta is not None else \
                schedule_weight(epoch, cfg.epochs, cfg.beta0)
            weights = LossWeights(alpha=alpha, beta=beta, tau=cfg.tau)
            sums = np.zeros(4)
            count = 0
            for bi, rows in enumerate(batch_iter(ds_train, cfg.batch_size, cfg.seed, epoch)):
                breakdown = _batch_loss(params, ds_train, rows, weights)
                if not np.isfinite(breakdown.total):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {bi}: {breakdown.total}")
                if cfg.learning_rate > 0:
                    T.backward(breakdown.total_node)
                    adam_step(params, {name: t.grad for name, t in params.named_tensors()},
                              adam_state, cfg.learning_rate)
                sums += (breakdown.mim, breakdown.mde, breakdown.msp, breakdown.total)
                count += 1
            if count == 0:
                raise ContractError("training set yields no batches at this batch size")
            means = sums / count
            bad = _nonfinite_tensor(params.config, _vectors(params, adam_state))
            if bad:
                raise TrainingDivergedError(f"non-finite values in {bad} after epoch {epoch}")
            val_total = (_validation_loss(params, ds_val, cfg) if ds_val is not None
                         else float("nan"))
            report.epochs.append(EpochStats(
                epoch=epoch, mim=means[0], mde=means[1], msp=means[2], total=means[3],
                alpha=alpha, beta=beta, val_total=val_total))
            if out_dir is not None:
                periodic = cfg.checkpoint_every > 0 and (epoch + 1) % cfg.checkpoint_every == 0
                if periodic or epoch == cfg.epochs - 1:
                    save_checkpoint(params, adam_state, epoch,
                                    os.path.join(out_dir, f"checkpoint_epoch{epoch}.ckpt"))
    return params, report


# ---------------------------------------------------------------------------
# checkpoint: a container (data.write_container) holding the model config, epoch,
# adam_step and tensor manifest in its header, then the tensors' float64 values
# ---------------------------------------------------------------------------

def _manifest(config: ModelConfig):
    """The parameters, then Adam's first moments, then its second moments."""
    return [{"name": name, "kind": kind, "shape": list(shape)}
            for kind in KINDS for name, shape, *_ in param_layout(config)]


def save_checkpoint(params: ModelParams, adam_state: AdamState, epoch, path):
    """The payload is the parameter, adam_m and adam_v vectors, written as they are."""
    write_container(path, CHECKPOINT_MAGIC,
                    {"model_config": asdict(params.config), "epoch": int(epoch),
                     "adam_step": int(adam_state.step), "tensors": _manifest(params.config)},
                    (np.ascontiguousarray(f, "<f8") for f in _vectors(params, adam_state)))


def load_checkpoint(path):
    """Returns (params, adam_state, completed_epoch, model_config).

    The header must list exactly the tensors ``save_checkpoint`` writes for its
    model_config, in its order, and the payload must hold exactly their bytes;
    both are checked against ``param_layout`` before any array is allocated, and
    the manifest's length, which the file bounds, before the layout is built.
    Every value must be finite. The parameter and moment vectors are views of the
    buffer the file was read into.
    """
    try:
        header, payload, _ = read_container(path, CHECKPOINT_MAGIC)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    try:
        config = ModelConfig(**header["model_config"])
        completed, step = int(header["epoch"]), int(header["adam_step"])
        manifest = header["tensors"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: header lacks {exc.args[0]}") from None
    except (TypeError, ValueError, OverflowError, ContractError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if completed < 0 or step < 0:
        raise CheckpointError(f"{path}: epoch {completed} and adam_step {step} must be >= 0")
    layers = len(config.backbone_hidden_dims) + 1
    if (not isinstance(manifest, list)
            or len(manifest) != len(KINDS) * 2 * (config.num_modalities * layers + 1)
            or manifest != _manifest(config)):
        raise CheckpointError(f"{path}: tensor manifest does not match its model_config")
    n = param_count(config)
    if len(payload) != 8 * 3 * n:
        problem = "truncated tensor data" if len(payload) < 8 * 3 * n else "trailing bytes"
        raise CheckpointError(f"{path}: {problem}")
    vectors = np.frombuffer(payload, "<f8").reshape(3, n)   # aligned, writable views
    bad = _nonfinite_tensor(config, vectors)
    if bad:
        raise CheckpointError(f"{path}: non-finite values in {bad}")
    params = init_params(config, vectors[0])
    return params, AdamState(params, step, vectors[1], vectors[2]), completed, config
