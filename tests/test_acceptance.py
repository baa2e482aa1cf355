"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from xmodal import tensor as T
from xmodal.cli import main as cli_main
from xmodal.data import SynthConfig, generate_synthetic, split
from xmodal.losses import LossWeights, schedule_weight
from xmodal.model import ModelConfig, embed, init_params
from xmodal.retrieval import EmbeddingIndex, build_index, evaluate_cross_modal, retrieve
from xmodal.trainer import TrainConfig, train

from index_rows import entries, label_layout, label_sets
from reference_metrics import ndcg_at_k, pair_f1
from reference_ops import combined2 as combined_loss
from reference_ops import mde2 as loss_mde
from reference_ops import mim2 as loss_mim
from reference_ops import msp2 as loss_msp
from test_losses import naive_mde, naive_mim, naive_msp


def verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# end-to-end experiment config (trained once, reused by several criteria)
# ---------------------------------------------------------------------------

SYNTH = SynthConfig(num_classes=8, multi_label=False, num_tuples=2000,
                    input_dim=32, latent_dim=16, noise_sigma=0.1, seed=0)
MODEL = ModelConfig(num_modalities=2, input_dim=32, backbone_hidden_dims=(64,),
                    feature_dim=64, embedding_dim=128, activation="tanh", seed=0)
TRAIN = TrainConfig(epochs=50, batch_size=32, learning_rate=1e-3, tau=0.2,
                    alpha0=1e-4, beta0=1e-4, seed=0)


@pytest.fixture(scope="module")
def experiment():
    ds = generate_synthetic(SYNTH)
    tr, va, te = split(ds, (0.52, 0.24, 0.24), seed=0)
    t0 = time.perf_counter()
    params, report = train(tr, va, MODEL, TRAIN)
    elapsed = time.perf_counter() - t0
    return {"train": tr, "val": va, "test": te, "params": params,
            "report": report, "seconds": elapsed}


def test_gradient_correctness():
    rng = np.random.default_rng(0)
    weights = LossWeights(alpha=0.7, beta=0.4, tau=0.2)
    losses = {
        "mim": lambda x, other: loss_mim(x, T.Tensor(other[0]), 0.2),
        "mde": lambda x, other: loss_mde(x, T.Tensor(other[1])),
        "msp": lambda x, other: loss_msp(x, T.Tensor(other[1])),
        "combined": lambda x, other: combined_loss(
            x, T.Tensor(other[0]), x, T.Tensor(other[1]), weights).total_node,
    }
    t0 = time.perf_counter()
    worst = {name: 0.0 for name in losses}
    for _ in range(20):
        x0 = rng.normal(size=(4, 8))
        other = (rng.normal(size=(4, 8)), rng.normal(size=(4, 8)))
        for name, f in losses.items():
            x = T.Tensor(x0, grad_enabled=True)
            T.backward(f(x, other))
            numeric = T.finite_diff_grad(lambda t: f(t, other), x0, h=1e-5).data
            worst[name] = max(worst[name], T.rel_error(x.grad, numeric))
    elapsed = time.perf_counter() - t0
    ok = all(err < 1e-4 for err in worst.values()) and elapsed < 30
    verdict("gradient-correctness", ok,
            f"(max rel err {max(worst.values()):.2e}, {elapsed:.1f}s)")


def test_loss_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        z_j, z_k = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
        y_j, y_k = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
        worst = max(worst,
                    abs(loss_mim(T.Tensor(z_j), T.Tensor(z_k), 0.2).item()
                        - naive_mim(z_j, z_k, 0.2)),
                    abs(loss_mde(T.Tensor(y_j), T.Tensor(y_k)).item()
                        - naive_mde(y_j, y_k)),
                    abs(loss_msp(T.Tensor(y_j), T.Tensor(y_k)).item()
                        - naive_msp(y_j, y_k)))
    verdict("loss-oracle-equivalence", worst < 1e-10, f"(max abs diff {worst:.2e})")


def test_closed_form_losses():
    rng = np.random.default_rng(2)
    z = np.tile(rng.normal(size=8), (9, 1))
    mim = loss_mim(T.Tensor(z), T.Tensor(z), 0.2).item()
    y = rng.normal(size=(6, 8))
    mde = loss_mde(T.Tensor(y), T.Tensor(y)).item()
    rows = np.tile(rng.normal(size=8), (4, 1))
    msp = loss_msp(T.Tensor(rows), T.Tensor(rows)).item()
    ok = (abs(mim - math.log(8)) < 1e-9
          and abs(mde - (-math.log(1 + math.e))) < 1e-9
          and msp == -1.0)
    verdict("closed-form-losses", ok,
            f"(mim {mim:.10f}, mde {mde:.10f}, msp {msp!r})")


def test_schedule_endpoints():
    ok = (schedule_weight(0, 100, 1e-4) == 1e-4
          and schedule_weight(99, 100, 1e-4) == 1.0)
    verdict("schedule-endpoints", ok)


def test_retrieval_oracle():
    rng = np.random.default_rng(3)
    dim = 16
    rows, sets = np.empty((1000, dim)), []
    for tid in range(1000):
        rows[tid] = rng.normal(size=dim)
        sets.append({int(rng.integers(8))})
    index = EmbeddingIndex(dim, np.arange(1000), *label_layout(sets), [rows])
    stored = entries(index, 0)
    ok = True
    for _ in range(1000):
        q = rng.normal(size=dim)
        qn = q / np.linalg.norm(q)
        oracle = sorted(((float(np.dot(e.embedding, qn)), e.tuple_id)
                         for e in stored), key=lambda t: (-t[0], t[1]))[:8]
        got = retrieve(index, q, 0, 8)
        if ([tid for _, tid in oracle] != [tid for tid, _ in got]
                or any(abs(s_o - s_g) > 1e-12
                       for (s_o, _), (_, s_g) in zip(oracle, got))):
            ok = False
            break
    # exact ties must come back in ascending tuple_id order
    v = rng.normal(size=dim)
    tie_index = EmbeddingIndex(dim, [42, 7, 19], *label_layout([{0}] * 3), [np.stack([v] * 3)])
    tie_ids = [tid for tid, _ in retrieve(tie_index, v, 0, 3)]
    ok = ok and tie_ids == [7, 19, 42]
    verdict("retrieval-oracle", ok)


def test_metric_oracles():
    checks = [
        pair_f1({1, 2}, {1, 2}) == 1.0,
        pair_f1({1}, {2}) == 0.0,
        abs(pair_f1({1, 2, 3}, {2, 3, 4}) - 2 / 3) < 1e-12,
        abs(ndcg_at_k([0.0, 1.0], 2) - 1 / math.log2(3)) < 1e-12,
        ndcg_at_k([0.0, 0.0], 2) == 0.0,
        abs(ndcg_at_k([3.0, 2.0, 1.0], 3) - 1.0) < 1e-12,
    ]
    verdict("metric-oracles", all(checks))


def test_end_to_end_synthetic_experiment(experiment):
    report = experiment["report"]
    decreased = report.epochs[-1].total < report.epochs[0].total

    params = experiment["params"]
    index = build_index(params, experiment["test"])
    f1 = {}
    for src, tgt in ((0, 1), (1, 0)):
        f1[(src, tgt)] = evaluate_cross_modal(params, index, experiment["train"],
                                              src, tgt, k=8).mean_f1
    # chance baseline measured with untrained params on the same split
    untrained = init_params(MODEL)
    chance_index = build_index(untrained, experiment["test"])
    chance = np.mean([evaluate_cross_modal(untrained, chance_index,
                                           experiment["train"], s, t, k=8).mean_f1
                      for s, t in ((0, 1), (1, 0))])
    above_chance = all(v >= 4 * chance for v in f1.values())
    in_time = experiment["seconds"] < 600
    ok = decreased and above_chance and in_time
    verdict("end-to-end-synthetic", ok,
            f"(loss {report.epochs[0].total:.3f}->{report.epochs[-1].total:.3f}, "
            f"F1@8 0->1 {f1[(0, 1)]:.3f}, 1->0 {f1[(1, 0)]:.3f}, "
            f"chance {chance:.3f}, {experiment['seconds']:.0f}s)")


def _neighbor_purity(params, ds, k=8):
    """Mean fraction of top-k same-modality neighbors sharing the query's label."""
    purities = []
    for m in range(ds.num_modalities):
        feats = ds.features[m]
        z = embed(params, m, feats)
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        labels = label_sets(ds)
        sims = z @ z.T
        np.fill_diagonal(sims, -np.inf)
        for i in range(len(ds)):
            top = np.argsort(-sims[i], kind="stable")[:k]
            purities.append(np.mean([bool(labels[i] & labels[j]) for j in top]))
    return float(np.mean(purities))


def test_ablation_direction_check():
    # diagnostic criterion: full objective should beat contrastive-only on
    # within-modality neighbor purity; a reversed direction is flagged, not fatal
    synth = SynthConfig(num_classes=8, num_tuples=600, input_dim=32, latent_dim=16,
                        noise_sigma=0.1, seed=0)
    base_train = dict(epochs=20, batch_size=32, learning_rate=1e-3, tau=0.2)
    purities = {"full": [], "mim_only": []}
    f1s = []
    chances = []
    for seed in range(3):
        ds = generate_synthetic(dataclasses.replace(synth, seed=seed))
        tr, va, te = split(ds, (0.52, 0.24, 0.24), seed=seed)
        model = dataclasses.replace(MODEL, seed=seed)
        full_cfg = TrainConfig(seed=seed, **base_train)
        mim_cfg = TrainConfig(seed=seed, fixed_alpha=0.0, fixed_beta=0.0, **base_train)
        p_full, _ = train(tr, va, model, full_cfg)
        p_mim, _ = train(tr, va, model, mim_cfg)
        purities["full"].append(_neighbor_purity(p_full, te))
        purities["mim_only"].append(_neighbor_purity(p_mim, te))
        index = build_index(p_mim, te)
        f1s.append(evaluate_cross_modal(p_mim, index, tr, 0, 1, k=8).mean_f1)
        untrained = init_params(model)
        chance_index = build_index(untrained, te)
        chances.append(evaluate_cross_modal(untrained, chance_index, tr, 0, 1,
                                            k=8).mean_f1)
    mim_above_chance = np.mean(f1s) >= np.mean(chances)
    mean_full = float(np.mean(purities["full"]))
    mean_mim = float(np.mean(purities["mim_only"]))
    direction_holds = mean_full > mean_mim
    if not direction_holds:
        print("ACCEPTANCE ablation-direction: FLAGGED — purity direction did not "
              f"hold at this scale (full {mean_full:.3f} vs mim-only {mean_mim:.3f})")
    verdict("ablation-direction", mim_above_chance,
            f"(mim-only F1 {np.mean(f1s):.3f} vs chance {np.mean(chances):.3f}; "
            f"purity full {mean_full:.3f} vs mim-only {mean_mim:.3f}, "
            f"direction {'holds' if direction_holds else 'FLAGGED'})")


def test_train_determinism_byte_identical(tmp_path):
    ds_path = tmp_path / "ds.txt"
    assert cli_main(["gen-data", "--out", str(ds_path), "--seed", "11",
                     "--set", "num_tuples=300"]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--dataset", str(ds_path), "--out-dir", str(out),
                         "--epochs", "5", "--batch-size", "16", "--seed", "3"]) == 0
        outs.append(out)
    same_csv = ((outs[0] / "train_report.csv").read_bytes()
                == (outs[1] / "train_report.csv").read_bytes())
    same_ckpt = ((outs[0] / "checkpoint_epoch4.ckpt").read_bytes()
                 == (outs[1] / "checkpoint_epoch4.ckpt").read_bytes())
    verdict("train-determinism", same_csv and same_ckpt)
