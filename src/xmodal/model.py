"""Per-modality MLP backbones and the shared cross-modal encoder.

Each modality j has its own backbone mapping raw feature vectors to
modal-specific features y; one shared affine encoder maps any modality's y to
the cross-modal embedding z used for retrieval.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeMismatchError, check_fields


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
        if any(d <= 0 for d in self.backbone_hidden_dims):
            raise ContractError("hidden dims must be positive")
        if self.activation not in ("tanh", "relu"):
            raise ContractError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "backbone_hidden_dims",
                           tuple(int(d) for d in self.backbone_hidden_dims))


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


def param_views(config: ModelConfig, flat):
    """{name: array} of every tensor, each a reshaped view of ``flat``."""
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in param_layout(config)}


def check_dataset(config: ModelConfig, ds):
    """ContractError unless the dataset has the model's modality count and input dimension."""
    if ds.num_modalities != config.num_modalities:
        raise ContractError("dataset and model disagree on modality count")
    if ds.input_dim != config.input_dim:
        raise ContractError("dataset and model disagree on input dimension")


@dataclass
class ModelParams:
    """All trainable tensors: one weight/bias list per backbone, one encoder pair.

    Each tensor's array is a view of ``flat``, the one float64 vector of every
    parameter in ``param_layout`` order; an update written into ``flat`` is
    the update of every tensor."""

    config: ModelConfig
    backbones: list = field(default_factory=list)  # per modality: [(W, b), ...]
    encoder: tuple = None                          # (W, b)
    flat: np.ndarray = None

    def named_tensors(self):
        tensors = [t for layers in (*self.backbones, [self.encoder]) for pair in layers
                   for t in pair]
        return [(name, t) for (name, _, _, _), t in
                zip(param_layout(self.config), tensors, strict=True)]

    def constants(self):
        """The same vector as constant Tensors: a forward pass over them records no graph."""
        return init_params(self.config, self.flat, grad_enabled=False)


def _glorot(rng, fan_in, fan_out):
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(config: ModelConfig, flat=None, grad_enabled=True) -> ModelParams:
    """The model's tensors as views of ``flat``, a float64 vector of ``param_count(config)``
    values in ``param_layout(config)`` order; by default a new vector of Glorot-uniform
    weights and zero biases, deterministic in config.seed.

    With ``grad_enabled=False`` the tensors are constants: a forward pass over
    them records no graph."""
    fresh = flat is None
    if fresh:
        flat = np.zeros(param_count(config))
    arrays = param_views(config, flat).values()
    if fresh:
        rng = np.random.default_rng(config.seed)
        for a in arrays:
            if a.ndim == 2:
                a[...] = _glorot(rng, *a.shape)
    tensors = [T.Tensor(a, grad_enabled=grad_enabled) for a in arrays]
    pairs = list(zip(tensors[0::2], tensors[1::2]))   # (W, b) of each layer
    depth = len(config.backbone_hidden_dims) + 1
    return ModelParams(config, [pairs[i:i + depth] for i in range(0, len(pairs) - 1, depth)],
                       pairs[-1], flat)


def forward_backbone(params: ModelParams, modality: int, x) -> T.Tensor:
    """Map a batch of raw inputs through modality j's backbone to y features."""
    if not 0 <= modality < params.config.num_modalities:
        raise IndexError(f"unknown modality {modality}")
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != params.config.input_dim:
        raise ShapeMismatchError(
            f"backbone input must be batch x {params.config.input_dim}, got {x.data.shape}")
    h = x
    layers = params.backbones[modality]
    for w, b in layers[:-1]:
        h = T.dense(h, w, b, params.config.activation)
    return T.dense(h, *layers[-1])


def forward_encoder(params: ModelParams, y) -> T.Tensor:
    """Shared affine encoder: y features -> z embeddings, same weights for all modalities."""
    y = y if isinstance(y, T.Tensor) else T.Tensor(y)
    if y.data.ndim != 2 or y.data.shape[1] != params.config.feature_dim:
        raise ShapeMismatchError(
            f"encoder input must be batch x {params.config.feature_dim}, got {y.data.shape}")
    return T.dense(y, *params.encoder)


def embed(params: ModelParams, modality: int, x) -> T.Tensor:
    """Inference path used by retrieval: encoder applied to backbone features.

    It runs on ``params.constants()``, so the embedding is a constant Tensor and
    no graph is recorded."""
    params = params.constants()
    return forward_encoder(params, forward_backbone(params, modality, x))
