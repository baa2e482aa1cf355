"""Adam updates, the training loop, checkpoints and resume-exactness."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from xmodal import tensor as T
from xmodal.data import SynthConfig, batch_iter, generate_synthetic, split
from xmodal.errors import CheckpointError, ContractError, TrainingDivergedError
from xmodal.losses import (LossBreakdown, LossWeights, combined_loss, loss_mde, loss_mim,
                           loss_msp, row_squares)
from xmodal.model import ModelConfig, init_params, leaf_views, param_count, param_layout
from xmodal.trainer import (CHECKPOINT_MAGIC, AdamState, TrainConfig, _batch_loss,
                            _validation_loss, adam_step, load_checkpoint, save_checkpoint,
                            train)

import reference_ops

MODEL = ModelConfig(input_dim=12, backbone_hidden_dims=(8,), feature_dim=6,
                    embedding_dim=6, seed=0)


@pytest.fixture(scope="module")
def datasets():
    ds = generate_synthetic(SynthConfig(num_classes=4, num_tuples=60, input_dim=12,
                                        latent_dim=6, noise_sigma=0.05, seed=0))
    return split(ds, (0.52, 0.24, 0.24), seed=0)


# the default model, a two-layer ReLU backbone and three modalities
STATE_CONFIGS = {"default": ModelConfig(),
                 "relu_48_40": ModelConfig(activation="relu", backbone_hidden_dims=(48, 40)),
                 "three_modalities": ModelConfig(num_modalities=3)}


def random_grads(params, rng):
    return {name: rng.normal(scale=rng.uniform(1e-3, 10.0), size=t.data.shape)
            for name, t in params.named_tensors()}


def stepped_checkpoint(config, path, steps=3):
    """A checkpoint of ``config`` after a few Adam steps, so its moments are not zero."""
    params = init_params(config)
    state, rng = AdamState(params), np.random.default_rng(30)
    for _ in range(steps):
        adam_step(params, random_grads(params, rng), state, 1e-3)
    save_checkpoint(params, state, 0, path)
    return params, state


def layout_tensors(leaves):
    """{param_layout name: array} of {leaf name: array}: each modality's slice of a stacked
    backbone leaf (backbone.layer0.W holds backbone0.layer0.W, ...) and the encoder's."""
    tensors = {}
    for name, a in leaves.items():
        if name.startswith("backbone."):
            tensors.update((f"backbone{m}{name[8:]}", a[m]) for m in range(len(a)))
        else:
            tensors[name] = a
    return tensors


def moment_views(config, state):
    """({name: view}, {name: view}) of Adam's first and second moment vectors."""
    return leaf_views(config, state.m_flat), leaf_views(config, state.v_flat)


def assert_views_of_vectors(params, state=None):
    """Every leaf's array, every moment and (once adam_step has made it) every gradient
    view is a view of its role's vector, and each modality slice of a stacked leaf is
    that modality's tensor, at its own offset."""
    leaves = {name: t.data for name, t in params.named_tensors()}
    roles = [(params.flat, leaves)]
    if state is not None:
        m, v = moment_views(params.config, state)
        roles += [(state.m_flat, m), (state.v_flat, v)]
        if state.grad_flat is not None:
            roles.append((state.grad_flat, state.grad))
    layout = {name: (shape, start) for name, shape, start, _ in param_layout(params.config)}
    for flat, arrays in roles:
        assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
        assert list(arrays) == list(leaves)
        assert all(np.shares_memory(a, flat) for a in arrays.values())
        tensors = layout_tensors(arrays)
        assert tensors.keys() == layout.keys()
        for name, (shape, start) in layout.items():
            a = tensors[name]
            assert a.shape == shape and a.flags.c_contiguous
            assert a.ctypes.data == flat.ctypes.data + 8 * start
        assert flat.size == param_count(params.config)


def params_equal(p1, p2):
    return all(np.array_equal(t1.data, t2.data)
               for (_, t1), (_, t2) in zip(p1.named_tensors(), p2.named_tensors()))


class TestAdamStep:
    def test_first_step_magnitude(self):
        # constant gradient from zero state: bias correction makes the ratio 1
        params = init_params(MODEL)
        state = AdamState(params)
        grads = {name: np.full_like(t.data, 0.5) for name, t in params.named_tensors()}
        before = {name: t.data.copy() for name, t in params.named_tensors()}
        adam_step(params, grads, state, lr=1e-3)
        for name, t in params.named_tensors():
            step = np.abs(t.data - before[name])
            np.testing.assert_allclose(step, 1e-3, rtol=1e-4)

    def test_zero_gradient_no_change(self):
        params = init_params(MODEL)
        state = AdamState(params)
        grads = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        before = {name: t.data.copy() for name, t in params.named_tensors()}
        adam_step(params, grads, state, lr=1e-3)
        for name, t in params.named_tensors():
            np.testing.assert_array_equal(t.data, before[name])

    def test_matches_reference_adam_10_steps(self):
        # independent scalar reference on a 3-parameter toy
        cfg = ModelConfig(input_dim=1, backbone_hidden_dims=(), feature_dim=1,
                          embedding_dim=1, seed=1)
        params = init_params(cfg)
        names = [n for n, _ in params.named_tensors()]
        theta = {n: t.data.copy() for n, t in params.named_tensors()}
        m = {n: 0.0 for n in names}
        v = {n: 0.0 for n in names}
        state = AdamState(params)
        rng = np.random.default_rng(2)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t_step in range(1, 11):
            grads = {n: rng.normal(size=theta[n].shape) for n in names}
            adam_step(params, grads, state, lr, b1, b2, eps)
            for n in names:
                m[n] = b1 * m[n] + (1 - b1) * grads[n]
                v[n] = b2 * v[n] + (1 - b2) * grads[n] ** 2
                theta[n] = theta[n] - lr * (m[n] / (1 - b1 ** t_step)) / (
                    np.sqrt(v[n] / (1 - b2 ** t_step)) + eps)
        for n, t in params.named_tensors():
            np.testing.assert_allclose(t.data, theta[n], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = init_params(MODEL)
        state = AdamState(params)
        grads = {name: np.zeros(3) for name, _ in params.named_tensors()}
        with pytest.raises(ContractError):
            adam_step(params, grads, state, lr=1e-3)

    @staticmethod
    def out_of_place_adam_step(params, grads, state, lr, b1=0.9, b2=0.999, eps=1e-8):
        """The update as a fresh-array formula; the in-place step must match it bit for bit."""
        state.step += 1
        t = state.step
        m, v = moment_views(params.config, state)
        for name, tensor in params.named_tensors():
            g = grads[name]
            m[name][...] = b1 * m[name] + (1 - b1) * g
            v[name][...] = b2 * v[name] + (1 - b2) * g * g
            m_hat = m[name] / (1 - b1 ** t)
            v_hat = v[name] / (1 - b2 ** t)
            tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)

    @pytest.mark.parametrize("source", ["init", "checkpoint"])
    def test_bit_identical_to_out_of_place_formula(self, source, tmp_path):
        config = ModelConfig()
        if source == "init":
            (params, state), (ref, ref_state) = [
                (p, AdamState(p)) for p in (init_params(config), init_params(config))]
        else:   # moments that load_checkpoint read back, not ones AdamState made
            params = init_params(config)
            state = AdamState(params)
            rng = np.random.default_rng(30)
            for _ in range(3):
                adam_step(params, {name: rng.normal(size=t.data.shape)
                                   for name, t in params.named_tensors()}, state, 1e-3)
            save_checkpoint(params, state, 0, tmp_path / "ck.ckpt")
            (params, state, _, _), (ref, ref_state, _, _) = (
                load_checkpoint(tmp_path / "ck.ckpt") for _ in range(2))
        rng = np.random.default_rng(31)
        for _ in range(20):
            grads = {name: rng.normal(scale=rng.uniform(1e-3, 10.0), size=t.data.shape)
                     for name, t in params.named_tensors()}
            copies = {name: g.copy() for name, g in grads.items()}
            adam_step(params, grads, state, 1e-3)
            self.out_of_place_adam_step(ref, grads, ref_state, 1e-3)
            for name, g in grads.items():
                np.testing.assert_array_equal(g, copies[name])
        assert state.step == ref_state.step
        (m, v), (ref_m, ref_v) = (moment_views(config, s) for s in (state, ref_state))
        for (name, t), (_, r) in zip(params.named_tensors(), ref.named_tensors()):
            np.testing.assert_array_equal(t.data, r.data)
            np.testing.assert_array_equal(m[name], ref_m[name])
            np.testing.assert_array_equal(v[name], ref_v[name])

    @pytest.mark.parametrize("config", STATE_CONFIGS)
    @pytest.mark.parametrize("source", ["init", "checkpoint"])
    def test_bit_identical_to_per_tensor_step(self, config, source, tmp_path):
        config = STATE_CONFIGS[config]
        if source == "init":
            sides = [(p, AdamState(p)) for p in (init_params(config), init_params(config))]
        else:
            stepped_checkpoint(config, tmp_path / "ck.ckpt")
            sides = [load_checkpoint(tmp_path / "ck.ckpt")[:2] for _ in range(2)]
        (params, state), (ref, ref_state) = sides
        rng = np.random.default_rng(32)
        for _ in range(20):
            grads = random_grads(params, rng)
            adam_step(params, grads, state, 1e-3)
            reference_ops.adam_step(ref, grads, ref_state, 1e-3)
        assert state.step == ref_state.step
        (m, v), (ref_m, ref_v) = (moment_views(config, s) for s in (state, ref_state))
        for (name, t), (_, r) in zip(params.named_tensors(), ref.named_tensors()):
            assert t.data.tobytes() == r.data.tobytes()
            assert m[name].tobytes() == ref_m[name].tobytes()
            assert v[name].tobytes() == ref_v[name].tobytes()
        assert_views_of_vectors(params, state)

    def test_rejected_gradient_changes_nothing(self):
        params = init_params(MODEL)
        state = AdamState(params)
        grads = {name: np.ones(t.data.shape) for name, t in params.named_tensors()}
        grads["encoder.b"] = np.ones(3)
        before = params.flat.copy()
        with pytest.raises(ContractError, match="encoder.b"):
            adam_step(params, grads, state, lr=1e-3)
        assert state.step == 0 and np.array_equal(params.flat, before)
        assert not state.m_flat.any() and not state.v_flat.any()


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self, datasets):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.0)
        params, _ = train(tr, va, MODEL, cfg)
        assert params_equal(params, init_params(MODEL))

    def test_loss_decreases(self, datasets):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=8, batch_size=8, learning_rate=1e-3)
        _, report = train(tr, va, MODEL, cfg)
        assert report.epochs[-1].total < report.epochs[0].total

    def test_deterministic_report(self, datasets, tmp_path):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3)
        p1, r1 = train(tr, va, MODEL, cfg)
        p2, r2 = train(tr, va, MODEL, cfg)
        assert params_equal(p1, p2)
        c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        r1.to_csv(c1)
        r2.to_csv(c2)
        assert c1.read_bytes() == c2.read_bytes()

    def test_schedule_endpoints_in_report(self, datasets):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-4,
                          alpha0=1e-4, beta0=1e-3)
        _, report = train(tr, va, MODEL, cfg)
        assert report.epochs[0].alpha == 1e-4
        assert report.epochs[0].beta == 1e-3
        assert report.epochs[-1].alpha == 1.0
        assert report.epochs[-1].beta == 1.0

    def test_fixed_weights_override_schedule(self, datasets):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-4,
                          fixed_alpha=0.0, fixed_beta=0.0)
        _, report = train(tr, va, MODEL, cfg)
        assert all(e.alpha == 0.0 and e.beta == 0.0 for e in report.epochs)
        for e in report.epochs:
            assert e.total == pytest.approx(e.mim, abs=1e-12)

    def test_nonfinite_loss_aborts_with_context(self, datasets):
        # an absurd learning rate overflows the weights to inf on step one;
        # the next forward pass produces nan and must abort with context
        tr, va, _ = datasets
        relu = ModelConfig(input_dim=12, backbone_hidden_dims=(8,), feature_dim=6,
                           embedding_dim=6, seed=0, activation="relu")
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e300)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            with np.errstate(all="ignore"):
                train(tr, va, relu, cfg)

    def test_failed_run_removes_only_the_directories_it_made(self, datasets, tmp_path):
        tr, va, _ = datasets
        kept = tmp_path / "kept"
        kept.mkdir()
        for out_dir in (kept / "a" / "b", kept):
            with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
                train(tr, va, MODEL, TrainConfig(epochs=2, tau=1e-300), out_dir=str(out_dir))
            assert kept.is_dir() and os.listdir(kept) == []

    def test_failed_run_keeps_its_periodic_checkpoints(self, datasets, tmp_path, monkeypatch):
        tr, va, _ = datasets
        calls = []

        def interrupted_after_epoch_0(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return _validation_loss(*args)

        monkeypatch.setattr("xmodal.trainer._validation_loss", interrupted_after_epoch_0)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            train(tr, va, MODEL, TrainConfig(epochs=3, batch_size=8, checkpoint_every=1),
                  out_dir=str(out))
        assert os.listdir(out) == ["checkpoint_epoch0.ckpt"]
        load_checkpoint(out / "checkpoint_epoch0.ckpt")

    def test_dataset_model_mismatch(self, datasets):
        tr, va, _ = datasets
        wrong = ModelConfig(input_dim=5, backbone_hidden_dims=(4,), feature_dim=3,
                            embedding_dim=3)
        with pytest.raises(ContractError):
            train(tr, va, wrong, TrainConfig(epochs=1))

    def test_total_accounting_per_epoch(self, datasets):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3)
        _, report = train(tr, va, MODEL, cfg)
        for e in report.epochs:
            assert e.total == pytest.approx(e.mim + e.alpha * e.mde + e.beta * e.msp,
                                            abs=1e-9)


class TestBatchLoss:
    def test_three_modalities_average_the_pairs(self):
        config = ModelConfig(num_modalities=3, input_dim=12, backbone_hidden_dims=(8,),
                             feature_dim=6, embedding_dim=6, seed=0)
        ds = generate_synthetic(SynthConfig(num_classes=4, num_tuples=20, input_dim=12,
                                            latent_dim=6, num_modalities=3, seed=1))
        params, rows = init_params(config), np.arange(8)
        weights = LossWeights(alpha=0.3, beta=0.7, tau=0.2)
        leaves = reference_ops.per_tensor_leaves(params)
        ys = [reference_ops.batch_features(params, leaves, ds, rows, m) for m in range(3)]
        zs = [T.dense(y, leaves["encoder.W"], leaves["encoder.b"]) for y in ys]
        t01, t02, t12 = (reference_ops.pair_combined_loss(zs[j], zs[k], ys[j], ys[k],
                                                          weights).total
                         for j, k in ((0, 1), (0, 2), (1, 2)))
        assert _batch_loss(params, ds, rows, weights).total == (t01 + t02 + t12) * (1.0 / 3)

    @pytest.mark.parametrize("num_modalities", [2, 3])
    def test_every_backward_rewrites_every_grad(self, num_modalities):
        # train hands adam_step each parameter's .grad, so every step's backward
        # must give every parameter a new gradient of its own shape
        config = ModelConfig(num_modalities=num_modalities, input_dim=12,
                             backbone_hidden_dims=(8,), feature_dim=6, embedding_dim=6, seed=0)
        ds = generate_synthetic(SynthConfig(num_classes=4, num_tuples=20, input_dim=12,
                                            latent_dim=6, num_modalities=num_modalities,
                                            seed=1))
        params = init_params(config)
        weights = LossWeights(alpha=0.3, beta=0.7, tau=0.2)
        state, steps = AdamState(params), []
        for rows in (np.arange(8), np.arange(8, 16)):
            T.backward(_batch_loss(params, ds, rows, weights).total_node)
            grads = {name: t.grad for name, t in params.named_tensors()}
            assert all(grads[name].shape == t.data.shape for name, t in params.named_tensors())
            adam_step(params, grads, state, 1e-3)
            steps.append(grads)
        assert all(steps[0][name] is not steps[1][name] for name in steps[0])


def layout_grads(params):
    """{param_layout name: gradient} of every tensor, read from the leaves' ``.grad``."""
    flat = np.empty(param_count(params.config))
    for name, view in leaf_views(params.config, flat).items():
        view[...] = dict(params.named_tensors())[name].grad
    return reference_ops.param_views(params.config, flat)


class TestStackedStep:
    """The stacked step against the per-modality graph it replaced."""

    CONFIGS = {"default": ModelConfig(),
               "relu_48_40": ModelConfig(activation="relu", backbone_hidden_dims=(48, 40))}

    @staticmethod
    def both_steps(config, num_modalities, rows):
        config = dataclasses.replace(config, num_modalities=num_modalities)
        ds = generate_synthetic(SynthConfig(num_tuples=80, input_dim=config.input_dim,
                                            num_modalities=num_modalities, multi_label=True,
                                            noise_sigma=0.5, num_classes=32, seed=6))
        params = init_params(config)
        state, rng = AdamState(params), np.random.default_rng(7)
        for _ in range(2):   # moved off the initial weights, whose biases are zero
            adam_step(params, random_grads(params, rng), state, 1e-2)
        weights = LossWeights(alpha=0.3, beta=0.7, tau=0.2)
        rows = np.random.default_rng(8).permutation(len(ds))[:rows]
        stacked = _batch_loss(params, ds, rows, weights)
        T.backward(stacked.total_node)
        leaves = reference_ops.per_tensor_leaves(params)
        reference = reference_ops.batch_loss(params, leaves, ds, rows, weights)
        T.backward(reference.total_node)
        return (stacked, layout_grads(params), reference,
                {name: t.grad for name, t in leaves.items()})

    @pytest.mark.parametrize("config, rows", [("default", 32), ("relu_48_40", 32),
                                              ("default", 7)],
                             ids=["default", "relu_48_40", "short_last_batch"])
    def test_two_modalities_bit_identical(self, config, rows):
        stacked, grads, reference, reference_grads = self.both_steps(
            self.CONFIGS[config], 2, rows)
        for key in ("mim", "mde", "msp", "total"):
            assert getattr(stacked, key) == getattr(reference, key)
        assert stacked.total_node.data.tobytes() == reference.total_node.data.tobytes()
        assert grads.keys() == reference_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, reference_grads[name])
            assert g.tobytes() == reference_grads[name].tobytes(), name

    @pytest.mark.parametrize("config", ["default", "relu_48_40"])
    def test_three_modalities_within_last_bits(self, config):
        # the pairs a modality enters sum its gradient in another order (see losses)
        stacked, grads, reference, reference_grads = self.both_steps(
            self.CONFIGS[config], 3, 32)
        for key in ("mim", "mde", "msp", "total"):
            assert getattr(stacked, key) == getattr(reference, key)
        for name, g in grads.items():
            assert T.rel_error(g, reference_grads[name]) <= 1e-14, name


def _chained_loss(z, y, weights):
    """combined_loss as the add/scale chain that its weighted_sum node replaces."""
    sq = row_squares(y.data)
    mim = loss_mim(z, row_squares(z.data), weights.tau)
    mde, msp = loss_mde(y, sq), loss_msp(y, sq)
    total = T.mean(T.add(mim, T.add(reference_ops.scale(mde, weights.alpha),
                                    reference_ops.scale(msp, weights.beta))))
    pair_mean = lambda loss: sum(loss.data.tolist()) / len(loss.data)
    return LossBreakdown(mim=pair_mean(mim), mde=pair_mean(mde), msp=pair_mean(msp),
                         total=total.item(), total_node=total)


class TestCombinedLossGraph:
    @pytest.mark.parametrize("num_modalities", [2, 3])
    def test_bit_identical_to_add_scale_chain(self, num_modalities, monkeypatch):
        config = ModelConfig(num_modalities=num_modalities, input_dim=12,
                             backbone_hidden_dims=(8, 7), feature_dim=6, embedding_dim=6,
                             seed=2)
        ds = generate_synthetic(SynthConfig(num_classes=4, num_tuples=20, input_dim=12,
                                            latent_dim=6, num_modalities=num_modalities,
                                            seed=3))
        weights = LossWeights(alpha=0.3, beta=0.7, tau=0.2)
        results = []
        for loss in (combined_loss, _chained_loss):
            monkeypatch.setattr("xmodal.trainer.combined_loss", loss)
            params = init_params(config)
            breakdown = _batch_loss(params, ds, np.arange(8), weights)
            T.backward(breakdown.total_node)
            results.append([breakdown.total_node.data,
                            *(t.grad for _, t in params.named_tensors())])
        assert all(np.array_equal(a, b) for a, b in zip(*results, strict=True))

    def test_default_step_builds_seven_nodes(self):
        config = ModelConfig()
        ds = generate_synthetic(SynthConfig(num_tuples=40, input_dim=config.input_dim, seed=4))
        params = init_params(config)
        total = _batch_loss(params, ds, np.arange(32), LossWeights()).total_node
        seen, stack = set(), [total]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(p for p in node._parents if p.grad_enabled)
        leaves = {t for t in seen if not t._parents}
        assert leaves == {t for _, t in params.named_tensors()}
        assert len(seen - leaves) == 7    # 3 dense, loss_mim, weighted_sum, add, mean


class TestValidationLoss:
    # the default model, and three modalities through a two-layer ReLU backbone
    CONFIGS = {"default": ModelConfig(),
               "relu_48_40_three": ModelConfig(num_modalities=3, activation="relu",
                                               backbone_hidden_dims=(48, 40))}

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_grad_enabled_batch_loss(self, config, monkeypatch):
        config = self.CONFIGS[config]
        ds = generate_synthetic(SynthConfig(num_classes=4, num_tuples=60,
                                            input_dim=config.input_dim, latent_dim=6,
                                            num_modalities=config.num_modalities,
                                            noise_sigma=0.05, seed=0))
        tr, va, _ = split(ds, (0.52, 0.24, 0.24), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=4)
        params, _ = train(tr, None, config, cfg)
        grads = {name: np.full(t.data.shape, 7.0) for name, t in params.named_tensors()}
        for name, t in params.named_tensors():
            t.grad = grads[name]
        made, init = [], T.Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            made.append(tensor)

        monkeypatch.setattr(T.Tensor, "__init__", recording_init)
        value = _validation_loss(params, va, cfg)
        monkeypatch.undo()
        assert all(t.grad is grads[name] and (t.grad == 7.0).all()
                   for name, t in params.named_tensors())
        # the loss's own nodes are the only Tensors: constants, none over a parameter
        assert made and not any(t.grad_enabled or t._parents for t in made)
        assert not any(np.shares_memory(t.data, params.flat) for t in made)
        weights = LossWeights(alpha=1.0, beta=1.0, tau=cfg.tau)
        totals, count = 0.0, 0
        for rows in batch_iter(va, cfg.batch_size, cfg.seed, 0):
            totals += _batch_loss(params, va, rows, weights).total
            count += 1
        assert count > 1 and value == totals / count


def checkpoint_parts(path):
    """(header, [payload bytes of each manifest entry]) of a checkpoint file."""
    blob = path.read_bytes()
    off = len(CHECKPOINT_MAGIC) + 8
    header_len = struct.unpack_from("<I", blob, off - 4)[0]
    header = json.loads(blob[off:off + header_len])
    chunks, off = [], off + header_len
    for entry in header["tensors"]:
        size = 8 * int(np.prod(entry["shape"]))
        chunks.append(blob[off:off + size])
        off += size
    return header, chunks


def write_checkpoint(path, version, header, chunks):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", version, len(raw)) + raw
                     + b"".join(chunks))


def _adam_m_of_shape_1(header, chunks):
    i = len(chunks) // 3   # the first adam_m entry follows the parameters
    header["tensors"][i]["shape"] = [1]
    return 1, header, chunks[:i] + [chunks[i][:8]] + chunks[i + 1:]


def _with_value(kind, name, value):
    """A corruption writing ``value`` over the first float of one manifest entry."""
    def corrupt(header, chunks):
        i = next(i for i, e in enumerate(header["tensors"])
                 if (e["kind"], e["name"]) == (kind, name))
        return 1, header, chunks[:i] + [struct.pack("<d", value) + chunks[i][8:]] + chunks[i + 1:]
    return corrupt


# each maps (header, chunks) of a valid checkpoint to (version, header, chunks)
CORRUPTIONS = {
    "dropped_tensor": lambda h, c: (1, {**h, "tensors": h["tensors"][1:]}, c[1:]),
    "duplicated_entry": lambda h, c: (1, {**h, "tensors": h["tensors"] + h["tensors"][:1]},
                                      c + c[:1]),
    "swapped_entries": lambda h, c: (1, {**h, "tensors": [h["tensors"][1], h["tensors"][0],
                                                          *h["tensors"][2:]]}, c),
    "adam_m_shape_1": _adam_m_of_shape_1,
    "epoch_-3": lambda h, c: (1, {**h, "epoch": -3}, c),
    "adam_step_-5": lambda h, c: (1, {**h, "adam_step": -5}, c),
    "version_2": lambda h, c: (2, h, c),
    "non_json_header": lambda h, c: (1, b"{not json", c),
    "trailing_8_bytes": lambda h, c: (1, h, c + [bytes(8)]),
    "cut_off_payload": lambda h, c: (1, h, c[:-1] + [c[-1][:-8]]),
    "nan_in_encoder_W": _with_value("param", "encoder.W", np.nan),
    "inf_in_adam_m": _with_value("adam_m", "backbone1.layer0.b", np.inf),
    "-inf_in_adam_v": _with_value("adam_v", "encoder.b", -np.inf),
}


class TestCheckpoint:
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_corrupt_file_rejected(self, tmp_path, corruption):
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 3, path)
        write_checkpoint(path, *CORRUPTIONS[corruption](*checkpoint_parts(path)))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, name, value", [
        ("param", "encoder.W", np.nan), ("adam_m", "backbone1.layer0.b", np.inf),
        ("adam_v", "encoder.b", -np.inf)])
    def test_non_finite_value_names_its_tensor(self, tmp_path, kind, name, value):
        # the first float of each tensor: the name comes from the right manifest entry
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 3, path)
        write_checkpoint(path, *_with_value(kind, name, value)(*checkpoint_parts(path)))
        with pytest.raises(CheckpointError, match=f"^{path}: non-finite values in {kind} {name}$"):
            load_checkpoint(path)

    def test_huge_model_config_rejected_before_allocation(self, tmp_path):
        # a header-only file whose model_config and manifest agree on a 466 TiB
        # encoder: the payload size is checked before any array is made
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 3, path)
        header, _ = checkpoint_parts(path)
        header["model_config"]["embedding_dim"] = 10**12
        for entry in header["tensors"]:
            if entry["name"].startswith("encoder."):
                entry["shape"][-1] = 10**12
        write_checkpoint(path, 1, header, [])
        with pytest.raises(CheckpointError, match="truncated tensor data$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("embedding_dim", 0), ("activation", "gelu"),
                                            ("seed", -1), ("backbone_hidden_dims", [0])],
                             ids=["embedding_dim=0", "activation=gelu", "seed=-1",
                                  "hidden dims [0]"])
    def test_invalid_model_config_rejected(self, tmp_path, key, value):
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 3, path)
        header, chunks = checkpoint_parts(path)
        header["model_config"][key] = value
        write_checkpoint(path, 1, header, chunks)
        with pytest.raises(CheckpointError, match=f"^{path}: malformed header: "):
            load_checkpoint(path)

    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(MODEL)
        state = AdamState(params)
        state.step = 7
        rng = np.random.default_rng(3)
        m, v = moment_views(MODEL, state)
        for name in m:
            m[name][...] = rng.normal(size=m[name].shape)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, state, 4, path)
        loaded, lstate, epoch, config = load_checkpoint(path)
        assert epoch == 4 and lstate.step == 7
        assert config == MODEL
        assert params_equal(params, loaded)
        loaded_m, loaded_v = moment_views(MODEL, lstate)
        for name in m:
            np.testing.assert_array_equal(m[name], loaded_m[name])
            np.testing.assert_array_equal(v[name], loaded_v[name])

    def test_loaded_arrays_are_aligned_writable(self, tmp_path):
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 3, path)
        loaded, state, _, _ = load_checkpoint(path)
        leaves = {name: t.data for name, t in loaded.named_tensors()}
        arrays = [a for views in (leaves, *moment_views(MODEL, state))
                  for a in layout_tensors(views).values()]
        assert len(arrays) == 3 * len(param_layout(MODEL))
        for a in arrays:
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert a.flags.aligned and a.flags.writeable

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 0, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ck.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_resume_equivalence(self, datasets, tmp_path):
        tr, va, _ = datasets
        full_cfg = TrainConfig(epochs=6, batch_size=8, learning_rate=1e-3,
                               checkpoint_every=3)
        p_full, _ = train(tr, va, MODEL, full_cfg, out_dir=str(tmp_path / "full"))
        ckpt = tmp_path / "full" / "checkpoint_epoch2.ckpt"
        assert ckpt.exists()
        p_resumed, report = train(tr, va, MODEL, full_cfg,
                                  out_dir=str(tmp_path / "resumed"),
                                  resume_from=str(ckpt))
        assert [e.epoch for e in report.epochs] == [3, 4, 5]
        assert params_equal(p_full, p_resumed)

    @pytest.mark.parametrize("config", STATE_CONFIGS)
    def test_bytes_equal_per_tensor_writer(self, config, tmp_path):
        params, state = stepped_checkpoint(STATE_CONFIGS[config], tmp_path / "ck.ckpt")
        reference_ops.save_checkpoint(params, state, 0, tmp_path / "ref.ckpt")
        assert (tmp_path / "ck.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()

    @pytest.mark.parametrize("config", STATE_CONFIGS)
    def test_state_is_views_of_one_vector_per_role(self, config, tmp_path):
        config = STATE_CONFIGS[config]
        params, state = stepped_checkpoint(config, tmp_path / "ck.ckpt")
        assert state.grad_flat is not None   # so the gradient vector's views are checked too
        assert_views_of_vectors(params, state)
        fresh = init_params(config)
        assert_views_of_vectors(fresh, AdamState(fresh))
        loaded, lstate, _, _ = load_checkpoint(tmp_path / "ck.ckpt")
        assert_views_of_vectors(loaded, lstate)

    def test_resumed_run_trains_in_the_loaded_vectors(self, datasets, tmp_path, monkeypatch):
        tr, va, _ = datasets
        cfg = TrainConfig(epochs=3, batch_size=8, checkpoint_every=1)
        train(tr, va, MODEL, cfg, out_dir=str(tmp_path / "full"))
        saved = []

        def recording_save(params, state, epoch, path):
            assert_views_of_vectors(params, state)
            saved.append((params.flat, state.m_flat, state.v_flat))
            save_checkpoint(params, state, epoch, path)

        monkeypatch.setattr("xmodal.trainer.save_checkpoint", recording_save)
        params, _ = train(tr, va, MODEL, cfg, out_dir=str(tmp_path / "resumed"),
                          resume_from=str(tmp_path / "full" / "checkpoint_epoch0.ckpt"))
        assert len(saved) == 2 and saved[0][0] is saved[1][0] is params.flat
        assert_views_of_vectors(params)
        # the three vectors lie back to back, as in the buffer the checkpoint was read into
        flat, m, v = saved[0]
        assert m.ctypes.data == flat.ctypes.data + flat.nbytes
        assert v.ctypes.data == m.ctypes.data + m.nbytes
        for epoch in (1, 2):
            name = f"checkpoint_epoch{epoch}.ckpt"
            assert ((tmp_path / "resumed" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    def test_resume_config_mismatch_rejected(self, datasets, tmp_path):
        params = init_params(MODEL)
        path = tmp_path / "ck.ckpt"
        save_checkpoint(params, AdamState(params), 0, path)
        tr, va, _ = datasets
        other = ModelConfig(input_dim=12, backbone_hidden_dims=(8,), feature_dim=6,
                            embedding_dim=6, seed=99)
        with pytest.raises(CheckpointError):
            train(tr, va, other, TrainConfig(epochs=2), resume_from=str(path))
