"""Model wiring: initialization, forward passes, parameter sharing, gradients."""

import re
import tracemalloc

import numpy as np
import pytest

from xmodal import tensor as T
from xmodal.errors import ContractError, ShapeMismatchError
from xmodal.model import (ModelConfig, _layers, embed, forward_backbone, forward_encoder,
                          init_params)

from reference_ops import msp2, tanh, tsum

SMALL = ModelConfig(input_dim=6, backbone_hidden_dims=(5,), feature_dim=4,
                    embedding_dim=3, seed=42)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        p1, p2 = init_params(SMALL), init_params(SMALL)
        for (n1, t1), (n2, t2) in zip(p1.named_tensors(), p2.named_tensors()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_biases_zero(self):
        for name, t in init_params(SMALL).named_tensors():
            if name.endswith(".b"):
                assert not t.data.any()

    def test_glorot_bound(self):
        cfg = ModelConfig(input_dim=64, backbone_hidden_dims=(128,), feature_dim=16,
                          embedding_dim=8, seed=0)
        w = init_params(cfg).backbone[0][0]   # every modality's first-layer weight
        bound = np.sqrt(6 / (64 + 128))
        assert bound == pytest.approx(0.1768, abs=5e-4)
        assert np.all(np.abs(w.data) <= bound)

    @pytest.mark.parametrize("dims", [(64.5,), [64.5], (64.0,), (8, 2.5), ("64",)],
                             ids=["64.5", "[64.5]", "64.0", "8,2.5", "str"])
    def test_hidden_dims_not_integers_rejected(self, dims):
        # a width is never truncated: 64.5 is not read as 64
        with pytest.raises(ContractError, match=re.escape(
                f"ModelConfig backbone_hidden_dims={dims!r} holds a non-integer")):
            ModelConfig(backbone_hidden_dims=dims)

    def test_hidden_dims_integers_kept(self):
        dims = ModelConfig(backbone_hidden_dims=[np.int64(8), 4]).backbone_hidden_dims
        assert dims == (8, 4) and all(type(d) is int for d in dims)

    def test_invalid_config_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(num_modalities=1)
        with pytest.raises(ContractError):
            ModelConfig(activation="gelu")


class TestForwardBackbone:
    def test_zero_params_zero_output_relu(self):
        cfg = ModelConfig(input_dim=6, backbone_hidden_dims=(5,), feature_dim=4,
                          embedding_dim=3, activation="relu", seed=0)
        params = init_params(cfg)
        for _, t in params.named_tensors():
            t.data = np.zeros_like(t.data)
        out = forward_backbone(params, np.random.default_rng(0).normal(size=(2, 3, 6)))
        assert not out.data.any()

    def test_batch_consistency(self):
        params = init_params(SMALL)
        x = np.random.default_rng(1).normal(size=(2, 4, 6))
        full = forward_backbone(params, x).data
        part = forward_backbone(params, x[:, 2:4]).data
        np.testing.assert_array_equal(full[:, 2:4], part)
        # one row, a matrix-vector product, through modality 0's layers on a 2-D batch
        x0 = np.random.default_rng(1).normal(size=(4, 6))
        layers = [(T.Tensor(w.data[0]), T.Tensor(b.data[0])) for w, b in params.backbone]
        single = _layers(x0[2:3], layers, SMALL.activation).data
        full = forward_backbone(params, np.stack([x0, x[1]])).data
        np.testing.assert_array_equal(full[0, 2:3], single)

    def test_unknown_modality(self):
        with pytest.raises(IndexError):
            embed(init_params(SMALL), 5, np.ones((1, 6)))

    def test_width_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            forward_backbone(init_params(SMALL), np.ones((2, 1, 7)))
        with pytest.raises(ShapeMismatchError):
            embed(init_params(SMALL), 0, np.ones((1, 7)))

    def test_gradient_first_layer_weights(self):
        params = init_params(SMALL)
        x = np.random.default_rng(2).normal(size=(2, 3, 6))
        w = params.backbone[0][0]

        def f(wt):
            w.data = wt.data
            return tsum(tanh(forward_backbone(params, x)))

        w0 = w.data.copy()
        loss = f(T.Tensor(w0))
        T.backward(loss)
        analytic = w.grad
        numeric = T.finite_diff_grad(f, w0).data
        w.data = w0
        assert T.rel_error(analytic, numeric) < 1e-6


class TestForwardEncoder:
    def test_shared_parameters_identity(self):
        params = init_params(SMALL)
        x = np.random.default_rng(3).normal(size=(2, 6))
        # the stack of both modalities and a 2-D batch reference the very same encoder
        # tensors
        y_stack = forward_backbone(params, np.stack([x, x]))
        y_batch = T.Tensor(np.random.default_rng(8).normal(size=(2, 4)))
        # each encoder output is one dense node over (y, W, b)
        for y in (y_stack, y_batch):
            z = forward_encoder(params, y)
            assert z._parents[0] is y
            assert z._parents[1] is params.encoder[0]
            assert z._parents[2] is params.encoder[1]

    def test_hand_computed_projection(self):
        cfg = ModelConfig(input_dim=2, backbone_hidden_dims=(), feature_dim=2,
                          embedding_dim=2, seed=0)
        params = init_params(cfg)
        params.encoder[0].data = np.array([[2.0, 0.0], [0.0, 3.0]])
        params.encoder[1].data = np.array([1.0, -1.0])
        out = forward_encoder(params, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 2.0]])

    def test_output_width(self):
        params = init_params(SMALL)
        y = np.random.default_rng(4).normal(size=(7, 4))
        assert forward_encoder(params, y).data.shape == (7, 3)

    def test_width_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            forward_encoder(init_params(SMALL), np.ones((1, 9)))


def _one_call(params, modality, x):
    """``embed`` as one call on the whole batch: its layers, then the encoder."""
    layers = [(T.Tensor(w.data[modality]), T.Tensor(b.data[modality]))
              for w, b in params.backbone]
    return forward_encoder(params.constants(),
                           _layers(x, layers, params.config.activation)).data


class TestEmbed:
    @pytest.mark.parametrize("modalities", [2, 3])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 257, 1200])
    def test_row_blocks_equal_one_call(self, n, activation, modalities):
        # blocks of 2 rows or more round as the whole batch does; a 1-row block, a
        # matrix-vector product, would not
        cfg = ModelConfig(num_modalities=modalities, backbone_hidden_dims=(48, 40),
                          activation=activation, seed=3)
        params = init_params(cfg)
        rng = np.random.default_rng(n)
        params.flat += rng.normal(scale=0.05, size=params.flat.shape)   # biases too
        x = rng.normal(size=(n, cfg.input_dim))
        for m in range(modalities):
            z = embed(params, m, x)
            assert z.shape == (n, cfg.embedding_dim)
            assert np.array_equal(z, _one_call(params, m, x))

    @pytest.mark.parametrize("modalities", [2, 3])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 257, 1200])
    def test_equals_the_forward_chain(self, n, activation, modalities):
        # embed's plain arrays give the bits of training's graph-building forward pass
        cfg = ModelConfig(num_modalities=modalities, backbone_hidden_dims=(48, 40),
                          activation=activation, seed=3)
        params = init_params(cfg)
        rng = np.random.default_rng(n)
        params.flat += rng.normal(scale=0.05, size=params.flat.shape)   # biases too
        x = rng.normal(size=(modalities, n, cfg.input_dim))
        chain = forward_encoder(params, forward_backbone(params, x)).data
        for m in range(modalities):
            assert np.array_equal(embed(params, m, x[m]), chain[m])

    def test_peak_memory_is_the_output_and_one_block(self):
        # the layer outputs are block-sized: the one N-sized array is the output
        params = init_params(ModelConfig())
        x = np.random.default_rng(9).normal(size=(1200, 32))
        embed(params, 0, x[:300])   # caches and lazily built state, outside the count
        tracemalloc.start()
        try:
            z = embed(params, 0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.35 * z.nbytes

    def test_matches_composition_exactly(self):
        params = init_params(SMALL)
        x = np.random.default_rng(5).normal(size=(4, 6))
        z = embed(params, 1, x)
        composed = forward_encoder(params, forward_backbone(params, np.stack([x, x]))).data
        np.testing.assert_array_equal(z, composed[1])

    def test_deterministic(self):
        params = init_params(SMALL)
        x = np.random.default_rng(6).normal(size=(4, 6))
        np.testing.assert_array_equal(embed(params, 0, x), embed(params, 0, x))


class TestParameterIsolation:
    def test_backbone_isolation_under_single_modality_loss(self):
        # an MSP term touching only modality-0 features must leave modality-1's slice
        # of every backbone gradient at zero and give the encoder none
        params = init_params(SMALL)
        x = np.random.default_rng(7).normal(size=(2, 4, 6))
        y = forward_backbone(params, x)
        y0 = T.node(y.data[0], (y,), lambda g: (np.stack([g, np.zeros_like(g)]),))
        loss = msp2(y0, y0)
        T.backward(loss)
        for name, t in params.named_tensors():
            if name.startswith("backbone"):
                assert np.abs(t.grad[0]).sum() > 0 and not t.grad[1].any()
            else:
                assert t.grad is None
