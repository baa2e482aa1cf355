"""Per-modality MLP backbones and the shared cross-modal encoder.

Each modality j has its own backbone mapping raw feature vectors to
modal-specific features y; one shared affine encoder maps any modality's y to
the cross-modal embedding z used for retrieval.

Training carries every modality of a batch as one (M, T, D) stack: each
backbone layer is one stacked leaf, a weight (M, in, out) and a bias (M, out)
whose slice m is modality m's, so ``forward_backbone`` runs every backbone in
one ``dense`` node per layer and ``forward_encoder`` the shared encoder in
one. Every leaf is a view of the one parameter vector, each slice at its
``param_layout`` offset, so the checkpoint layout does not depend on the
stacking. ``embed`` runs one modality's slices on a 2-D batch, in row blocks.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeMismatchError, check_fields

EMBED_BLOCK = 128   # at most this many rows per block of ``embed``


@dataclass(frozen=True)
class ModelConfig:
    num_modalities: int = 2
    input_dim: int = 32
    backbone_hidden_dims: tuple = (64,)
    feature_dim: int = 64
    embedding_dim: int = 128
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.num_modalities < 2:
            raise ContractError("num_modalities must be >= 2")
        if self.input_dim <= 0 or self.feature_dim <= 0 or self.embedding_dim <= 0:
            raise ContractError("dimensions must be positive")
        dims = tuple(self.backbone_hidden_dims)
        if not all(isinstance(d, numbers.Integral) for d in dims):
            raise ContractError(f"ModelConfig backbone_hidden_dims="
                                f"{self.backbone_hidden_dims!r} holds a non-integer")
        if any(d <= 0 for d in dims):
            raise ContractError("hidden dims must be positive")
        if self.activation not in ("tanh", "relu"):
            raise ContractError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "backbone_hidden_dims", tuple(int(d) for d in dims))


@functools.cache
def param_layout(config: ModelConfig):
    """((name, shape, start, stop), ...) of every trainable tensor, in the one order used
    to build, list and save them: each backbone's layers (W, then b), then the encoder's.
    ``flat[start:stop]`` holds the tensor in a vector that holds them all back to back."""
    dims = [config.input_dim, *config.backbone_hidden_dims, config.feature_dim]
    layers = [(f"backbone{j}.layer{li}.", fan_in, fan_out) for j in range(config.num_modalities)
              for li, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]))]
    layers.append(("encoder.", config.feature_dim, config.embedding_dim))
    layout, start = [], 0
    for prefix, fan_in, fan_out in layers:
        for name, shape in ((prefix + "W", (fan_in, fan_out)), (prefix + "b", (fan_out,))):
            layout.append((name, shape, start, start + math.prod(shape)))
            start += math.prod(shape)
    return tuple(layout)


def param_count(config: ModelConfig):
    """The length of that vector: the number of trainable floats."""
    return param_layout(config)[-1][3]


def leaf_views(config: ModelConfig, flat):
    """{name: array} of the model's leaves, each a view of ``flat`` (or of any vector of its
    length): per backbone layer l the stacked ``backbone.layer{l}.W`` (M, in, out) and
    ``backbone.layer{l}.b`` (M, out), whose slice m is the ``param_layout`` tensor of
    modality m, then ``encoder.W`` and ``encoder.b``."""
    m, layout = config.num_modalities, param_layout(config)
    block = flat[:layout[-2][2]].reshape(m, -1)   # one row per modality's backbone
    views = {}
    for name, shape, start, stop in layout:
        if name.startswith("backbone0."):
            views["backbone" + name[9:]] = block[:, start:stop].reshape(m, *shape)
        elif name.startswith("encoder."):
            views[name] = flat[start:stop].reshape(shape)
    return views


def check_dataset(config: ModelConfig, ds):
    """ContractError unless the dataset has the model's modality count and input dimension."""
    if ds.num_modalities != config.num_modalities:
        raise ContractError("dataset and model disagree on modality count")
    if ds.input_dim != config.input_dim:
        raise ContractError("dataset and model disagree on input dimension")


@dataclass
class ModelParams:
    """All trainable tensors: one stacked (W, b) leaf pair per backbone layer, one encoder
    pair.

    Each tensor's array is a view of ``flat``, the one float64 vector of every
    parameter in ``param_layout`` order; an update written into ``flat`` is
    the update of every tensor."""

    config: ModelConfig
    backbone: list = field(default_factory=list)   # per layer: (W, b), stacked over modalities
    encoder: tuple = None                           # (W, b)
    flat: np.ndarray = None

    def named_tensors(self):
        """[(name, tensor)] of every leaf, in ``leaf_views`` order."""
        tensors = [t for pair in (*self.backbone, self.encoder) for t in pair]
        return list(zip(_leaf_names(self.config), tensors, strict=True))

    def constants(self):
        """The same vector as constant Tensors: a forward pass over them records no graph."""
        return init_params(self.config, self.flat, grad_enabled=False)


@functools.cache
def _leaf_names(config: ModelConfig):
    return tuple(leaf_views(config, np.empty(param_count(config))))   # the names alone


def _glorot(rng, fan_in, fan_out):
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(config: ModelConfig, flat=None, grad_enabled=True) -> ModelParams:
    """The model's tensors as views of ``flat``, a float64 vector of ``param_count(config)``
    values in ``param_layout(config)`` order; by default a new vector of Glorot-uniform
    weights and zero biases, deterministic in config.seed.

    With ``grad_enabled=False`` the tensors are constants: a forward pass over
    them records no graph."""
    if flat is None:
        flat = np.zeros(param_count(config))
        rng = np.random.default_rng(config.seed)
        for _, shape, start, stop in param_layout(config):
            if len(shape) == 2:
                flat[start:stop] = _glorot(rng, *shape).ravel()
    tensors = [T.Tensor(a, grad_enabled=grad_enabled) for a in leaf_views(config, flat).values()]
    pairs = list(zip(tensors[0::2], tensors[1::2]))   # (W, b) of each layer
    return ModelParams(config, pairs[:-1], pairs[-1], flat)


def _layers(h, layers, activation):
    """``h`` through the (W, b) layers: the activation after each but the last."""
    for w, b in layers[:-1]:
        h = T.dense(h, w, b, activation)
    return T.dense(h, *layers[-1])


def forward_backbone(params: ModelParams, x) -> T.Tensor:
    """Map a stack of raw input batches, one per modality, (M, T, input_dim), through
    each modality's backbone to y features (M, T, feature_dim)."""
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    config = params.config
    if x.data.ndim != 3 or x.data.shape[::2] != (config.num_modalities, config.input_dim):
        raise ShapeMismatchError(f"backbone input must be {config.num_modalities} x batch x "
                                 f"{config.input_dim}, got {x.data.shape}")
    return _layers(x, params.backbone, config.activation)


def forward_encoder(params: ModelParams, y) -> T.Tensor:
    """Shared affine encoder: y features -> z embeddings, same weights for all modalities.

    ``y`` is one batch (T, feature_dim) or a stack of them (M, T, feature_dim)."""
    y = y if isinstance(y, T.Tensor) else T.Tensor(y)
    if y.data.ndim not in (2, 3) or y.data.shape[-1] != params.config.feature_dim:
        raise ShapeMismatchError(
            f"encoder input must be batch x {params.config.feature_dim}, got {y.data.shape}")
    return T.dense(y, *params.encoder)


def embed(params: ModelParams, modality: int, x) -> np.ndarray:
    """Inference path used by retrieval: one modality's batch (N, input_dim) through its
    backbone, read from each stacked leaf's slice, and the encoder, as an (N,
    embedding_dim) array.

    The rows go through in ``ceil(N / EMBED_BLOCK)`` blocks of near-equal size, each
    block's z written into one (N, embedding_dim) array, so no layer output is N rows
    tall. No block holds a single row unless N = 1: a one-row product is a
    matrix-vector product that rounds differently, while blocks of 2 rows or more give
    the bits of one call on the whole batch (``tests/test_model.py`` checks this). Each
    layer is the value arithmetic of ``tensor.dense`` on the leaf arrays, so z has the
    bits of ``forward_backbone`` and ``forward_encoder``; no Tensor is made and no
    graph is recorded."""
    config = params.config
    if not 0 <= modality < config.num_modalities:
        raise IndexError(f"unknown modality {modality}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ShapeMismatchError(
            f"backbone input must be batch x {config.input_dim}, got {x.shape}")
    # each backbone layer's modality slice, then the encoder; as in ``_layers``, the
    # activation follows every backbone layer but the last
    layers = [(w.data[modality], b.data[modality]) for w, b in params.backbone]
    layers.append((params.encoder[0].data, params.encoder[1].data))
    activations = [config.activation] * (len(layers) - 2) + [None, None]
    n = len(x)
    blocks = max(1, -(-n // EMBED_BLOCK))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    z = np.empty((n, config.embedding_dim))
    for start, stop in zip(bounds, bounds[1:]):
        h = x[start:stop]
        for (w, b), activation in zip(layers, activations):
            h, _ = T._dense_value(h, w, b, activation)
        z[start:stop] = h
    return z
