"""CLI commands end to end: file outputs, determinism, exit codes."""

import argparse
import dataclasses
import datetime
import gc
import hashlib
import json
import os
import platform
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import xmodal
from xmodal import cli
from xmodal import data as data_module
from xmodal import tensor as T
from xmodal.cli import build_parser, main, typed_config
from xmodal.data import SynthConfig, TupleDataset, load_dataset, save_dataset, split
from xmodal.errors import ContractError
from xmodal.trainer import TrainConfig, load_checkpoint, save_checkpoint
from xmodal.model import ModelConfig, embed, forward_backbone, forward_encoder, init_params
from xmodal.losses import combined_loss, loss_mde, loss_mim, loss_msp
from xmodal.retrieval import build_index, evaluate_cross_modal, metrics_to_csv, retrieve


def run(args):
    return main(args)


def run_process(args, address_space=None):
    """(exit code, stderr lines) of `python -m xmodal.cli ARGS` in a fresh interpreter;
    if ``address_space`` is given, with one BLAS thread and at most that many bytes of
    address space."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xmodal.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    limit = None
    if address_space is not None:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")   # no per-thread buffers
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    proc = subprocess.run([sys.executable, "-m", "xmodal.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)
    return proc.returncode, proc.stderr.splitlines()


@pytest.fixture()
def trained(dataset_file, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                "--epochs", "1", "--batch-size", "16"]) == 0
    return dataset_file, out / "checkpoint_epoch0.ckpt"


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "ds.txt"
    assert run(["gen-data", "--out", str(path), "--seed", "7",
                "--set", "num_tuples=120", "--set", "num_classes=5"]) == 0
    return path


BOOL_SPELLINGS = [("true", True), ("TRUE", True), ("yes", True), ("Yes", True), ("1", True),
                  ("false", False), ("False", False), ("no", False), ("NO", False),
                  ("0", False)]


@pytest.mark.parametrize("cls, values, expected", [
    (TrainConfig, {"epochs": "3"}, {"epochs": 3}),
    (TrainConfig, {"learning_rate": "1e-2"}, {"learning_rate": 0.01}),
    (ModelConfig, {"activation": "relu"}, {"activation": "relu"}),
    (ModelConfig, {"backbone_hidden_dims": "8, 4"}, {"backbone_hidden_dims": (8, 4)}),
    (SynthConfig, {"labels_per_tuple": "2,3"}, {"labels_per_tuple": (2, 3)}),
    *[(SynthConfig, {"multi_label": text}, {"multi_label": value})
      for text, value in BOOL_SPELLINGS],
    (TrainConfig, {"fixed_alpha": "none"}, {"fixed_alpha": None}),
    (TrainConfig, {"fixed_beta": ""}, {"fixed_beta": None}),
    (TrainConfig, {"fixed_beta": "None"}, {"fixed_beta": None}),
    (TrainConfig, {"fixed_alpha": "0.5"}, {"fixed_alpha": 0.5}),
    (TrainConfig, {"epochs": 2, "learning_rate": 0.25}, {"epochs": 2, "learning_rate": 0.25}),
    (TrainConfig, {"epoch": "3"}, "unknown TrainConfig key 'epoch'"),
    (TrainConfig, {"epochs": "abc"}, "TrainConfig epochs='abc' is not a valid int"),
    (TrainConfig, {"tau": "x"}, "TrainConfig tau='x' is not a valid float"),
    (TrainConfig, {"fixed_alpha": "x"}, "TrainConfig fixed_alpha='x' is not a valid float"),
    (SynthConfig, {"multi_label": "maybe"}, "SynthConfig multi_label='maybe' is not a valid bool"),
    (ModelConfig, {"backbone_hidden_dims": "8,x"},
     "ModelConfig backbone_hidden_dims='8,x' is not a valid tuple"),
])
def test_typed_config(cls, values, expected):
    """Strings cast by field type; other values pass through; bad keys and values named."""
    if isinstance(expected, str):
        with pytest.raises(ContractError, match=f"^{re.escape(expected)}$"):
            typed_config(cls, values)
    else:
        config = typed_config(cls, values)
        # repr tells 3 from 3.0 and True from 1
        assert {key: repr(getattr(config, key)) for key in expected} == \
            {key: repr(value) for key, value in expected.items()}


class TestGenData:
    def test_output_loadable(self, dataset_file):
        ds = load_dataset(dataset_file)
        assert len(ds) == 120 and ds.num_modalities == 2

    def test_summary_line(self, tmp_path, capsys):
        out = tmp_path / "ds.txt"
        assert run(["gen-data", "--out", str(out), "--set", "num_tuples=30",
                    "--set", "num_modalities=3"]) == 0
        assert capsys.readouterr().out == f"wrote 30 tuples x 3 modalities to {out}\n"

    def test_seed_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run(["gen-data", "--out", str(path), "--seed", "7",
                        "--set", "num_tuples=50"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_dir_needs_mkdirs(self, tmp_path):
        # a path without an extension names a file too
        for out in (tmp_path / "sub" / "ds.txt", tmp_path / "other" / "ds"):
            assert run(["gen-data", "--out", str(out), "--set", "num_tuples=50"]) == 1
            assert run(["gen-data", "--out", str(out), "--set", "num_tuples=50",
                        "--mkdirs"]) == 0
            assert out.is_file()

    def test_bad_config_key_named(self, tmp_path, capsys):
        out = tmp_path / "ds.txt"
        assert run(["gen-data", "--out", str(out), "--set", "bogus_key=1"]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_manifest_written(self, dataset_file):
        manifest = json.loads(
            (dataset_file.parent / "manifest_gen_data.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == {"dataset": str(dataset_file),
                                       "columns": f"{dataset_file}.cols"}
        assert os.path.isfile(manifest["outputs"]["columns"])
        assert (manifest["python_version"], manifest["numpy_version"]) == (
            platform.python_version(), np.__version__)


@pytest.mark.parametrize("sidecar", ["kept", "removed"])
def test_manifests_record_the_archive_digest(dataset_file, tmp_path, monkeypatch, sidecar):
    # train and evaluate record the SHA-256 of the archive text that load_dataset hashed,
    # once per command with no archive held; one changed byte changes it; retrieve writes none
    if sidecar == "removed":
        os.remove(f"{dataset_file}.cols")
    hashes, sha256 = [], hashlib.sha256
    monkeypatch.setattr(data_module, "_clock", lambda: 0)   # no archive is held
    monkeypatch.setattr(data_module, "hashlib", types.SimpleNamespace(
        sha256=lambda *args: hashes.append("payload" if args else "file") or sha256(*args)))
    recorded = []
    # the text is hashed once, and a stale sidecar is refused before its payload is hashed
    for name, expected_hashes in (
            ("first", ["file", "payload"] if sidecar == "kept" else ["file"]),
            ("changed", ["file"])):
        out = tmp_path / name
        ckpt = out / "checkpoint_epoch0.ckpt"
        for argv, manifest in (
                (["train", "--out-dir", str(out), "--epochs", "1", "--batch-size", "16"],
                 out / "manifest_train.json"),
                (["evaluate", "--checkpoint", str(ckpt), "--out", str(out / "m.csv")],
                 out / "manifest_evaluate.json")):
            hashes.clear()
            assert run([*argv, "--dataset", str(dataset_file)]) == 0
            assert hashes == expected_hashes
            inputs = json.loads(manifest.read_text())["inputs"]
            assert inputs["dataset_sha256"] == sha256(dataset_file.read_bytes()).hexdigest()
            recorded.append(inputs["dataset_sha256"])
        assert run(["retrieve", "--checkpoint", str(ckpt), "--dataset", str(dataset_file),
                    "--query-id", "5"]) == 0
        # one digit 1-8 of the first feature, raised by one
        text = dataset_file.read_bytes()
        at = next(i for i in range(text.index(b"\t", text.index(b"\t") + 1), len(text))
                  if text[i] in b"12345678")
        dataset_file.write_bytes(text[:at] + bytes([text[at] + 1]) + text[at + 1:])
    assert recorded[0] == recorded[1] != recorded[2] == recorded[3]
    assert not list(tmp_path.rglob("manifest_retrieve*"))


def test_manifest_times_are_ordered_utc(dataset_file, tmp_path):
    # each command's manifest: started and finished in UTC ISO-8601, started first
    out = tmp_path / "run"
    assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                "--epochs", "1", "--batch-size", "16"]) == 0
    assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch0.ckpt"),
                "--dataset", str(dataset_file), "--out", str(out / "m.csv")]) == 0
    for manifest in (dataset_file.parent / "manifest_gen_data.json",
                     out / "manifest_train.json", out / "manifest_evaluate.json"):
        record = json.loads(manifest.read_text())
        started, finished = (datetime.datetime.fromisoformat(record[key])
                             for key in ("started", "finished"))
        assert started.utcoffset() == finished.utcoffset() == datetime.timedelta(0)
        assert started <= finished


class TestTrainCommand:
    def _train(self, dataset_file, out_dir, extra=()):
        return run(["train", "--dataset", str(dataset_file), "--out-dir", str(out_dir),
                    "--epochs", "2", "--batch-size", "16", *extra])

    def test_summary_line(self, dataset_file, tmp_path, capsys):
        # the last epoch's losses and weights, as the report holds them
        out = tmp_path / "run"
        capsys.readouterr()
        assert self._train(dataset_file, out) == 0
        header, *rows = (out / "train_report.csv").read_text().splitlines()
        last = dict(zip(header.split(","), rows[-1].split(",")))
        f = {key: float(value) for key, value in last.items()}
        assert capsys.readouterr().out == (
            f"epoch {last['epoch']}: mim={f['mim']:.6f} mde={f['mde']:.6f} "
            f"msp={f['msp']:.6f} total={f['total']:.6f} "
            f"alpha={f['alpha']:.6g} beta={f['beta']:.6g}\n")
        assert last["epoch"] == "1"

    def test_outputs_and_csv_rows(self, dataset_file, tmp_path):
        out = tmp_path / "run"
        assert self._train(dataset_file, out) == 0
        csv = (out / "train_report.csv").read_text().splitlines()
        assert len(csv) == 3  # header + one row per epoch
        assert (out / "checkpoint_epoch1.ckpt").exists()
        assert (out / "manifest_train.json").exists()

    def test_resumed_manifest_names_its_checkpoint(self, dataset_file, tmp_path):
        # the checkpoint's path, epoch and digest, and the versions that ran the run;
        # a run that was not resumed records none, and the outputs do not change
        every, resumed = tmp_path / "every", tmp_path / "resumed"
        assert self._train(dataset_file, every, ("--set", "checkpoint_every=1")) == 0
        ckpt = every / "checkpoint_epoch0.ckpt"
        assert self._train(dataset_file, resumed, ("--resume-from", str(ckpt))) == 0
        manifest = json.loads((resumed / "manifest_train.json").read_text())
        assert manifest["inputs"]["resume_from"] == {
            "path": str(ckpt), "epoch": 0, "sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest()}
        assert (manifest["python_version"], manifest["numpy_version"]) == (
            platform.python_version(), np.__version__)
        assert json.loads((every / "manifest_train.json").read_text())["inputs"][
            "resume_from"] is None
        assert (resumed / "checkpoint_epoch1.ckpt").read_bytes() == \
            (every / "checkpoint_epoch1.ckpt").read_bytes()

    def test_resume_digest_is_of_the_checkpoint_read(self, dataset_file, tmp_path):
        # a run that writes a checkpoint over the one it resumed from records the digest
        # of the bytes it resumed from, not of the file it left there
        first, out = tmp_path / "first", tmp_path / "out"
        assert self._train(dataset_file, first, ("--set", "checkpoint_every=1")) == 0
        out.mkdir()
        source = out / "checkpoint_epoch2.ckpt"
        source.write_bytes((first / "checkpoint_epoch0.ckpt").read_bytes())
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        assert self._train(dataset_file, out, ("--resume-from", str(source),
                                               "--epochs", "3")) == 0
        assert hashlib.sha256(source.read_bytes()).hexdigest() != digest
        manifest = json.loads((out / "manifest_train.json").read_text())
        assert manifest["inputs"]["resume_from"] == {
            "path": str(source), "epoch": 0, "sha256": digest}

    def test_one_row_train_split_one_line(self, tmp_path):
        # a 10-tuple archive splits 1/5/4: one row makes no batch of at least 2
        data, out = tmp_path / "ten.txt", tmp_path / "run"
        assert run(["gen-data", "--out", str(data), "--seed", "1",
                    "--set", "num_tuples=10"]) == 0
        code, err = run_process(["train", "--dataset", str(data), "--out-dir", str(out),
                                 "--split", "0.05,0.5,0.45"])
        assert code == 1
        assert err == ["error: training set yields no batches at this batch size"]
        assert not out.exists()

    def test_one_row_validation_split_one_line(self, tmp_path):
        # a 10-tuple archive splits 5/1/4: the validation part makes no batch either, and
        # is refused before the first epoch
        data, out = tmp_path / "ten.txt", tmp_path / "run"
        assert run(["gen-data", "--out", str(data), "--seed", "0",
                    "--set", "num_tuples=10"]) == 0
        code, err = run_process(["train", "--dataset", str(data), "--out-dir", str(out),
                                 "--epochs", "2", "--batch-size", "4",
                                 "--split", "0.5,0.1,0.4"])
        assert code == 1
        assert err == ["error: validation set yields no batches at this batch size"]
        assert not out.exists()

    def test_modality_count_taken_from_the_archive(self, tmp_path):
        # a three-modality archive needs no --model-config: the checkpoint is the one a
        # config repeating the archive's count trains
        data, cfg = tmp_path / "tri.txt", tmp_path / "model.cfg"
        cfg.write_text("num_modalities = 3\n")
        assert run(["gen-data", "--out", str(data), "--seed", "3",
                    "--set", "num_tuples=60", "--set", "num_modalities=3"]) == 0
        for out, extra in (("plain", []), ("config", ["--model-config", str(cfg)])):
            assert run(["train", "--dataset", str(data), "--out-dir", str(tmp_path / out),
                        "--epochs", "2", "--batch-size", "8", *extra]) == 0
        assert (tmp_path / "plain" / "checkpoint_epoch1.ckpt").read_bytes() == \
            (tmp_path / "config" / "checkpoint_epoch1.ckpt").read_bytes()

    @pytest.mark.parametrize("archive, config", [(3, 2), (2, 3)])
    def test_config_modality_count_mismatch_one_line(self, tmp_path, archive, config):
        data, cfg, out = tmp_path / "ds.txt", tmp_path / "model.cfg", tmp_path / "run"
        cfg.write_text(f"num_modalities = {config}\n")
        assert run(["gen-data", "--out", str(data), "--set", "num_tuples=40",
                    "--set", f"num_modalities={archive}"]) == 0
        code, err = run_process(["train", "--dataset", str(data), "--out-dir", str(out),
                                 "--model-config", str(cfg)])
        assert code == 1
        assert err == ["error: dataset and model disagree on modality count"]
        assert not out.exists()

    def test_zero_lr_checkpoint_equals_init(self, dataset_file, tmp_path):
        out = tmp_path / "run0"
        assert self._train(dataset_file, out, ("--lr", "0", "--epochs", "1")) == 0
        params, _, _, config = load_checkpoint(out / "checkpoint_epoch0.ckpt")
        fresh = init_params(config)
        for (_, a), (_, b) in zip(params.named_tensors(), fresh.named_tensors()):
            assert (a.data == b.data).all()

    def test_config_precedence(self, dataset_file, tmp_path):
        """--train-config file < --set < typed flags."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 9\nbatch_size = 8\ntau = 0.3\n")
        out = tmp_path / "run"
        assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--train-config", str(cfg), "--set", "epochs=5",
                    "--set", "batch_size=16", "--epochs", "1"]) == 0
        train = json.loads((out / "manifest_train.json").read_text())["config"]["train"]
        assert (train["epochs"], train["batch_size"], train["tau"]) == (1, 16, 0.3)
        assert len((out / "train_report.csv").read_text().splitlines()) == 2

    def test_rerun_identical_outputs(self, dataset_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self._train(dataset_file, out1) == 0
        assert self._train(dataset_file, out2) == 0
        assert (out1 / "train_report.csv").read_bytes() == \
            (out2 / "train_report.csv").read_bytes()
        assert (out1 / "checkpoint_epoch1.ckpt").read_bytes() == \
            (out2 / "checkpoint_epoch1.ckpt").read_bytes()

    def test_relu_model_with_zero_rows_trains(self, tmp_path):
        # every bias starts at 0, so a tuple whose hidden ReLU units are all off has
        # exactly-zero y and z rows: they train as dead rows, and the run completes
        dataset, config = tmp_path / "hard.txt", tmp_path / "relu.cfg"
        assert run(["gen-data", "--out", str(dataset), "--seed", "11",
                    "--set", "num_tuples=300", "--set", "multi_label=true",
                    "--set", "noise_sigma=0.5", "--set", "num_classes=32"]) == 0
        config.write_text("activation = relu\nbackbone_hidden_dims = 16,8\n"
                          "embedding_dim = 24\nseed = 4\n")
        params = init_params(ModelConfig(activation="relu", backbone_hidden_dims=(16, 8),
                                         embedding_dim=24, seed=4))
        y = forward_backbone(params, load_dataset(dataset).features).data
        assert (~y.any(axis=-1)).any()   # the premise: some tuple's y row is zero
        code, err = run_process(["train", "--dataset", str(dataset), "--out-dir",
                                 str(tmp_path / "run"), "--model-config", str(config),
                                 "--epochs", "2"])
        assert (code, err) == (0, [])
        assert (tmp_path / "run" / "checkpoint_epoch1.ckpt").exists()


class TestEvaluateCommand:
    def test_both_directions_summary(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--epochs", "2", "--batch-size", "16"]) == 0
        metrics = tmp_path / "metrics.csv"
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch1.ckpt"),
                    "--dataset", str(dataset_file), "--out", str(metrics),
                    "--direction", "both", "--k", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "0->1" in stdout and "1->0" in stdout and "average" in stdout
        lines = metrics.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("summary,")) == 3
        manifest = json.loads((tmp_path / "manifest_evaluate.json").read_text())
        assert (manifest["python_version"], manifest["numpy_version"]) == (
            platform.python_version(), np.__version__)

    def test_rerun_identical_csv(self, dataset_file, tmp_path):
        out = tmp_path / "run"
        run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
             "--epochs", "1", "--batch-size", "16"])
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for m in (m1, m2):
            assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch0.ckpt"),
                        "--dataset", str(dataset_file), "--out", str(m)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_incompatible_checkpoint_fails(self, dataset_file, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert run(["evaluate", "--checkpoint", str(bad),
                    "--dataset", str(dataset_file),
                    "--out", str(tmp_path / "m.csv")]) == 2


    def test_three_modalities_rerun_identical(self, tmp_path):
        data, cfg = tmp_path / "tri.txt", tmp_path / "model.cfg"
        cfg.write_text("num_modalities = 3\n")
        assert run(["gen-data", "--out", str(data), "--seed", "3",
                    "--set", "num_tuples=60", "--set", "num_modalities=3"]) == 0
        outputs = []
        for out in (tmp_path / "r1", tmp_path / "r2"):
            assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                        "--model-config", str(cfg), "--epochs", "2", "--batch-size", "8"]) == 0
            assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch1.ckpt"),
                        "--dataset", str(data), "--direction", "both",
                        "--out", str(out / "m.csv")]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("train_report.csv", "checkpoint_epoch1.ckpt", "m.csv")])
        summary = [line.split(",")[1] for line in outputs[0][2].decode().splitlines()
                   if line.startswith("summary,")]
        assert summary == ["0->1", "0->2", "1->0", "1->2", "2->0", "2->1", "average"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("modalities, embeds", [(2, 4), (3, 6)])
    def test_each_split_modality_embedded_once(self, tmp_path, monkeypatch, modalities, embeds):
        # one embed per modality of the index split and of the query split, however
        # many directions read them; the CSV is that of one embedding per direction
        data, cfg, out = tmp_path / "ds.txt", tmp_path / "model.cfg", tmp_path / "run"
        cfg.write_text(f"num_modalities = {modalities}\n")
        assert run(["gen-data", "--out", str(data), "--seed", "3", "--set", "num_tuples=60",
                    "--set", f"num_modalities={modalities}"]) == 0
        assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                    "--model-config", str(cfg), "--epochs", "1", "--batch-size", "8"]) == 0
        calls = []
        monkeypatch.setattr("xmodal.retrieval.embed",
                            lambda params, m, x: calls.append(m) or embed(params, m, x))
        assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch0.ckpt"),
                    "--dataset", str(data), "--direction", "both",
                    "--out", str(tmp_path / "m.csv")]) == 0
        assert sorted(calls) == sorted(2 * list(range(modalities))) and len(calls) == embeds
        params = load_checkpoint(out / "checkpoint_epoch0.ckpt")[0]
        query, _, index_split = split(load_dataset(data), (0.52, 0.24, 0.24), 0)
        index = build_index(params, index_split)
        metrics_to_csv([evaluate_cross_modal(params, index, query, src, tgt)
                        for src in range(modalities) for tgt in range(modalities)
                        if src != tgt], tmp_path / "per_direction.csv")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "per_direction.csv").read_bytes()

    @pytest.mark.parametrize("query_split, index_split", [("train", "test"), ("test", "test")])
    def test_three_modality_directions_in_order(self, tmp_path, capsys, query_split,
                                                index_split):
        # --direction both writes the six directions in _parse_direction order, each
        # as a --direction S->T run of that pair alone writes it; with test/test one
        # part is both the query set and the index
        data, cfg, out = tmp_path / "tri.txt", tmp_path / "model.cfg", tmp_path / "run"
        cfg.write_text("num_modalities = 3\n")
        assert run(["gen-data", "--out", str(data), "--seed", "3", "--set", "num_tuples=100",
                    "--set", "num_modalities=3"]) == 0
        assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                    "--model-config", str(cfg), "--epochs", "1", "--batch-size", "8"]) == 0
        capsys.readouterr()

        def evaluate(direction):
            metrics = tmp_path / "m.csv"
            assert run(["evaluate", "--checkpoint", str(out / "checkpoint_epoch0.ckpt"),
                        "--dataset", str(data), "--direction", direction,
                        "--query-split", query_split, "--index-split", index_split,
                        "--out", str(metrics)]) == 0
            return metrics.read_text().splitlines()[1:], capsys.readouterr().out.splitlines()

        directions = [f"{src}->{tgt}" for src, tgt in cli._parse_direction("both", 3)]
        rows, table = evaluate("both")
        per_query = [row.split(",")[1] for row in rows if not row.startswith("summary,")]
        assert per_query == sorted(per_query, key=directions.index)   # one block each
        assert [row.split(",")[1] for row in rows if row.startswith("summary,")] == [
            *directions, "average"]
        for i, direction in enumerate(directions):
            alone, alone_table = evaluate(direction)
            assert alone == [row for row in rows if row.split(",")[1] == direction]
            assert alone_table[1:] == [table[1 + i]]

    def test_peak_memory_is_what_it_must_hold(self, tmp_path):
        # evaluate --direction both on an archive of the benchmark's eval_scan config must
        # hold the checkpoint, the query and index parts' features, the index rows and
        # one query set's rows (3.33 MB here); the ranking's blocks come on top (1.5
        # times in all). Two copies of a query set, or both sources' at once, reach 2.2
        data, out = tmp_path / "scan.txt", tmp_path / "run"
        assert run(["gen-data", "--out", str(data), "--seed", "5", "--set", "num_tuples=2000",
                    "--set", "multi_label=true", "--set", "noise_sigma=0.5",
                    "--set", "num_classes=32"]) == 0
        assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                    "--epochs", "2"]) == 0
        ckpt = out / "checkpoint_epoch1.ckpt"
        argv = ["evaluate", "--checkpoint", str(ckpt), "--dataset", str(data),
                "--direction", "both", "--out", str(tmp_path / "m.csv")]
        assert run(argv) == 0   # caches and lazily built state, outside the count
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = load_checkpoint(ckpt)[0]
        query, _, index = split(load_dataset(data), (0.52, 0.24, 0.24), 0)
        row = 8 * params.config.embedding_dim
        held = (3 * params.flat.nbytes + query.features.nbytes + index.features.nbytes
                + index.num_modalities * len(index) * row + len(query) * row)
        assert 3.3e6 < held < 3.4e6
        assert peak < 1.75 * held

    def test_query_without_candidates_one_line(self, tmp_path):
        # a 10-tuple archive splits 8/1/1: the one test query's only candidate
        # in the test index is itself, which is excluded
        data, run_dir, metrics = tmp_path / "ten.txt", tmp_path / "run", tmp_path / "m.csv"
        assert run(["gen-data", "--out", str(data), "--seed", "1",
                    "--set", "num_tuples=10"]) == 0
        assert run(["train", "--dataset", str(data), "--out-dir", str(run_dir),
                    "--epochs", "1", "--batch-size", "4"]) == 0
        query = split(load_dataset(data), (0.8, 0.1, 0.1), 0)[2].ids[0]
        code, err = run_process(["evaluate", "--checkpoint",
                                 str(run_dir / "checkpoint_epoch0.ckpt"), "--dataset", str(data),
                                 "--split", "0.8,0.1,0.1", "--query-split", "test",
                                 "--index-split", "test", "--out", str(metrics)])
        assert code == 1
        assert err == [f"error: query tuple {query} has no candidate in the index of modality 1"]
        assert not metrics.exists()

    @pytest.mark.parametrize("direction, message", [
        ("0-1", "--direction expects 'both' or SRC->TGT, got '0-1'"),
        ("0->5", "modality 5 outside [0, 2)"),
        ("5->0", "modality 5 outside [0, 2)"),
    ])
    def test_bad_direction_one_line(self, trained, tmp_path, direction, message):
        dataset, ckpt = trained
        code, err = run_process(["evaluate", "--checkpoint", str(ckpt),
                                 "--dataset", str(dataset), "--out", str(tmp_path / "m.csv"),
                                 "--direction", direction])
        assert code == 1
        assert err == [f"error: {message}"]
        assert not (tmp_path / "m.csv").exists()


def _edit_checkpoint_header(ckpt, bad, change, payload=True):
    """Writes to ``bad`` the checkpoint ``ckpt`` with its JSON header edited in place
    by ``change``, and with its payload only if ``payload``."""
    blob = ckpt.read_bytes()
    version, header_len = struct.unpack_from("<II", blob, 6)
    header = json.loads(blob[14:14 + header_len])
    change(header)
    raw = json.dumps(header).encode()
    bad.write_bytes(blob[:6] + struct.pack("<II", version, len(raw)) + raw
                    + (blob[14 + header_len:] if payload else b""))


def _embedding_dim(dim):
    """A header edit: model_config and manifest both claim this embedding_dim."""
    def change(header):
        header["model_config"]["embedding_dim"] = dim
        for entry in header["tensors"]:
            if entry["name"].startswith("encoder."):
                entry["shape"][-1] = dim
    return change


class TestBadInputOneLine:
    """Malformed inputs exit with their documented code and one stderr line."""

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_split_not_numeric(self, trained, tmp_path, command):
        dataset, ckpt = trained
        args = (["evaluate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "m.csv")]
                if command == "evaluate" else ["train", "--out-dir", str(tmp_path / "run2")])
        code, err = run_process([*args, "--dataset", str(dataset), "--split", "0.5,abc"])
        assert code == 1
        assert err == ["error: --split expects comma-separated fractions, got '0.5,abc'"]
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "run2").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-data", "--set", "num_tuples=abc"],
         "SynthConfig num_tuples='abc' is not a valid int"),
        (["gen-data", "--set", "multi_label=true", "--set", "labels_per_tuple=3,1"],
         "multi_label needs 1 <= labels_per_tuple 3,1 <= num_classes 8"),
        (["gen-data", "--set", "input_dim=0"], "input_dim must be >= 1"),
        (["train", "--set", "epochs=abc"], "TrainConfig epochs='abc' is not a valid int"),
        (["train", "--model-config", "{model_config}"],
         "ModelConfig embedding_dim='abc' is not a valid int"),
        # a negative seed used to end in NumPy's "expected non-negative integer"
        (["train", "--seed", "-1"], "TrainConfig seed=-1 must be >= 0"),
        (["train", "--split-seed", "-1"], "split: seed=-1 must be >= 0"),
        (["evaluate", "--split-seed", "-1"], "split: seed=-1 must be >= 0"),
        (["gen-data", "--seed", "-1"], "SynthConfig seed=-1 must be >= 0"),
        (["train", "--model-config", "{seed_config}"], "ModelConfig seed=-1 must be >= 0"),
        # each of these used to run, or to fail as a runtime error
        (["train", "--lr", "nan"], "TrainConfig learning_rate=nan must be finite"),
        (["gen-data", "--set", "noise_sigma=nan"], "SynthConfig noise_sigma=nan must be finite"),
        (["train", "--set", "tau=nan"], "TrainConfig tau=nan must be finite"),
        (["train", "--set", "fixed_alpha=nan"], "TrainConfig fixed_alpha=nan must be finite"),
        (["train", "--set", "checkpoint_every=-1"], "checkpoint_every must be >= 0"),
        # each of these ran, exiting 0 or failing in schedule_weight, with its check removed
        (["train", "--epochs", "0"], "epochs must be >= 1"),
        (["train", "--set", "alpha0=0"], "alpha0 must be in (0, 1]"),
        # a NaN fraction used to end in "cannot convert float NaN to integer"
        (["train", "--split", "0.5,nan,0.5"], "split: all fractions must be positive"),
        (["evaluate", "--split", "0.25,0.25,nan"], "split: all fractions must be positive"),
    ])
    def test_bad_config_value(self, trained, tmp_path, argv, message):
        dataset_file, ckpt = trained
        model_config, seed_config = tmp_path / "model.cfg", tmp_path / "seed.cfg"
        model_config.write_text("embedding_dim = abc\n")
        seed_config.write_text("seed = -1\n")
        out = tmp_path / "out"
        where = {"gen-data": ["--out", str(out / "ds.txt"), "--mkdirs"],
                 "evaluate": ["--dataset", str(dataset_file), "--checkpoint", str(ckpt),
                              "--out", str(out / "m.csv"), "--mkdirs"]}.get(
            argv[0], ["--dataset", str(dataset_file), "--out-dir", str(out)])
        code, err = run_process([*(a.format(model_config=model_config, seed_config=seed_config)
                                   for a in argv), *where])
        assert code == 1
        assert err == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--model-config", "--train-config"])
    def test_config_file_not_utf8(self, dataset_file, tmp_path, flag):
        # its second line is the byte 0xe9, which is not UTF-8; it used to end in a
        # UnicodeDecodeError traceback
        config, out = tmp_path / "bad.cfg", tmp_path / "out"
        config.write_bytes(b"epochs=2\n\xe9\n")
        where = (["gen-data", "--out", str(out / "ds.txt"), "--mkdirs"] if flag == "--config"
                 else ["train", "--dataset", str(dataset_file), "--out-dir", str(out)])
        code, err = run_process([*where, flag, str(config)])
        assert code == 1
        assert err == [f"error: {config}: not UTF-8 text"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, line", [("--config", "num_tuples=30"),
                                            ("--model-config", "embedding_dim=12"),
                                            ("--train-config", "epochs=2")])
    def test_config_file_with_byte_order_mark(self, dataset_file, tmp_path, flag, line):
        # an editor's UTF-8 byte-order mark used to become part of the first key
        config, out = tmp_path / "bom.cfg", tmp_path / "out"
        config.write_bytes(b"\xef\xbb\xbf" + line.encode() + b"\n")
        train = ["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                 "--batch-size", "16"]
        where = {"--config": ["gen-data", "--out", str(out / "ds.txt"), "--mkdirs"],
                 "--model-config": [*train, "--epochs", "1"], "--train-config": train}[flag]
        code, err = run_process([*where, flag, str(config)])
        assert (code, err) == (0, [])
        if flag == "--config":
            assert len(load_dataset(out / "ds.txt")) == 30
        elif flag == "--model-config":
            assert load_checkpoint(out / "checkpoint_epoch0.ckpt")[3].embedding_dim == 12
        else:
            assert sorted(os.listdir(out)) == ["checkpoint_epoch1.ckpt", "manifest_train.json",
                                               "train_report.csv"]

    @pytest.mark.parametrize("pattern, replacement, message", [
        (rb"N=2", b"N=abc", "line 1: header field 'N=abc' is not key=integer"),
        (rb"N=2", b"N=0", "line 1: header field N=0 must be >= 1"),
        (rb"N=2", b"N=-1", "line 1: header field N=-1 must be >= 1"),
        (rb"dim=32", b"dim=0", "line 1: header field dim=0 must be >= 1"),
        (rb"N=2", b"N=1000000000000", "tuple 0 has 2 of 1000000000000 modalities"),
        # the first feature of line 2 becomes the byte 0xff, which is not UTF-8
        (rb"\n(\d+\t\d+\t)[^,]*", b"\n\\1\xff",
         "line 2: could not convert string to float: '\\udcff' (last good line 1)"),
    ], ids=["N=abc", "N=0", "N=-1", "dim=0", "N=10**12", "byte 0xff"])
    def test_dataset_header_not_integer(self, dataset_file, tmp_path, pattern, replacement,
                                        message):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(re.sub(pattern, replacement, dataset_file.read_bytes(), count=1))
        code, err = run_process(["train", "--dataset", str(bad),
                                 "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("setting, argv, message", [
        ("input_dim=16", ["retrieve", "--query-id", "5"], "input dimension"),
        ("num_modalities=3", ["retrieve", "--query-id", "5", "--src", "2"], "modality count"),
        ("num_modalities=3", ["evaluate", "--direction", "0->1", "--out", "{metrics}"],
         "modality count"),
    ], ids=["retrieve input_dim", "retrieve num_modalities", "evaluate num_modalities"])
    def test_dataset_model_mismatch(self, trained, tmp_path, setting, argv, message):
        _, ckpt = trained
        other = tmp_path / "other.txt"
        assert run(["gen-data", "--out", str(other), "--set", setting,
                    "--set", "num_tuples=40"]) == 0
        metrics = tmp_path / "m.csv"
        code, err = run_process([*(a.format(metrics=metrics) for a in argv),
                                 "--checkpoint", str(ckpt), "--dataset", str(other)])
        assert code == 1
        assert err == [f"error: dataset and model disagree on {message}"]
        assert not metrics.exists()

    @pytest.mark.parametrize("key", ["adam_step", "tensors"])
    def test_checkpoint_header_missing_key(self, trained, tmp_path, key):
        dataset, ckpt = trained
        blob = ckpt.read_bytes()
        off = len(b"XMSSL1")
        version, header_len = struct.unpack_from("<II", blob, off)
        header = json.loads(blob[off + 8:off + 8 + header_len])
        del header[key]
        raw = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:off] + struct.pack("<II", version, len(raw)) + raw
                        + blob[off + 8 + header_len:])
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert err == [f"error: {bad}: header lacks {key}"]

    def test_checkpoint_missing_tensor(self, trained, tmp_path):
        # the first parameter's manifest entry and payload are cut out
        dataset, ckpt = trained
        blob = ckpt.read_bytes()
        off = len(b"XMSSL1")
        version, header_len = struct.unpack_from("<II", blob, off)
        header = json.loads(blob[off + 8:off + 8 + header_len])
        dropped = header["tensors"].pop(0)
        raw = json.dumps(header).encode()
        payload = blob[off + 8 + header_len + 8 * int(np.prod(dropped["shape"])):]
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        bad.write_bytes(blob[:off] + struct.pack("<II", version, len(raw)) + raw + payload)
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: tensor manifest does not match its model_config"]
        assert not metrics.exists()

    def test_checkpoint_non_finite_value(self, trained, tmp_path):
        # encoder.W[0, 0] set to NaN used to evaluate to an arbitrary ranking and exit 0
        dataset, ckpt = trained
        params, state, epoch, _ = load_checkpoint(ckpt)
        params.encoder[0].data[0, 0] = np.nan
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        save_checkpoint(params, state, epoch, bad)
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: non-finite values in param encoder.W"]
        assert not metrics.exists()

    @pytest.mark.parametrize("setting, message", [
        # a finite loss whose squared gradients overflow Adam's second moments: this
        # used to exit 0 with a RuntimeWarning and write a checkpoint no command loads
        ("tau=1e-300", "non-finite values in adam_v backbone0.layer0.W after epoch 0"),
        # this exited 2 after 26 lines of NumPy warnings
        ("learning_rate=1e300", "non-finite loss at epoch 1, batch 0: nan"),
    ])
    def test_training_diverges(self, tmp_path, setting, message):
        dataset, out = tmp_path / "ds.txt", tmp_path / "run"
        assert run(["gen-data", "--out", str(dataset), "--seed", "3",
                    "--set", "num_tuples=60"]) == 0
        code, err = run_process(["train", "--dataset", str(dataset), "--out-dir", str(out),
                                 "--epochs", "2", "--set", setting])
        assert code == 2
        assert err == [f"error: {message}"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value, message", [
        ("embedding_dim", 0, "dimensions must be positive"),
        ("activation", "gelu", "unknown activation 'gelu'"),
        ("seed", -1, "ModelConfig seed=-1 must be >= 0"),
        ("backbone_hidden_dims", [0], "hidden dims must be positive"),
    ], ids=["embedding_dim=0", "activation=gelu", "seed=-1", "hidden dims [0]"])
    def test_checkpoint_model_config_invalid(self, trained, tmp_path, key, value, message):
        dataset, ckpt = trained
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        _edit_checkpoint_header(ckpt, bad, lambda header: header["model_config"].update(
            {key: value}))
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: malformed header: {message}"]
        assert not metrics.exists()

    def test_checkpoint_hidden_dims_not_integer(self, trained, tmp_path):
        # a width of 64.5 is refused, not read as the 64 the tensors are
        dataset, ckpt = trained
        bad = tmp_path / "bad.ckpt"
        _edit_checkpoint_header(ckpt, bad, lambda header: header["model_config"].update(
            backbone_hidden_dims=[64.5]))
        assert run_process(["retrieve", "--checkpoint", str(bad), "--dataset", str(dataset),
                            "--query-id", "5"]) == (2, [
            f"error: {bad}: malformed header: ModelConfig backbone_hidden_dims=[64.5] "
            "holds a non-integer"])

    def test_checkpoint_header_claims_a_huge_model(self, trained, tmp_path):
        # 466 TiB per encoder weight matrix: the payload size is checked first
        dataset, ckpt = trained
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        _edit_checkpoint_header(ckpt, bad, _embedding_dim(10**12), payload=False)
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: truncated tensor data"]
        assert not metrics.exists()

    def test_checkpoint_header_claims_many_modalities(self, trained, tmp_path):
        # the manifest's length is checked before a layout of 100000 modalities is built
        # (it took about 470 MB): the file fails within the address space that retrieving
        # with the unedited checkpoint needs
        dataset, ckpt = trained
        bad = tmp_path / "bad.ckpt"
        _edit_checkpoint_header(ckpt, bad, lambda header: header["model_config"].update(
            num_modalities=100000))
        limit = 300 << 20
        for path, expected in ((ckpt, (0, [])), (bad, (2, [
                f"error: {bad}: tensor manifest does not match its model_config"]))):
            assert run_process(["retrieve", "--checkpoint", str(path), "--dataset",
                                str(dataset), "--query-id", "5"], address_space=limit) == expected

    def test_cut_checkpoint(self, trained, tmp_path):
        dataset, ckpt = trained
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        bad.write_bytes(ckpt.read_bytes()[:200])
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: truncated header"]
        assert not metrics.exists()

    def test_cut_checkpoint_claiming_a_4_gib_header(self, trained, tmp_path):
        dataset, ckpt = trained
        bad, metrics = tmp_path / "bad.ckpt", tmp_path / "m.csv"
        blob = ckpt.read_bytes()[:200]
        bad.write_bytes(blob[:10] + struct.pack("<I", 2**32 - 1) + blob[14:])
        code, err = run_process(["evaluate", "--checkpoint", str(bad), "--dataset",
                                 str(dataset), "--out", str(metrics)])
        assert code == 2
        assert err == [f"error: {bad}: truncated header"]
        assert not metrics.exists()

    # each asks for an array that malloc refuses at once (466 TiB, 6.94 EiB)
    @pytest.mark.parametrize("argv, config", [
        (["train", "--dataset", "{dataset}", "--out-dir", "{out}", "--epochs", "1",
          "--model-config", "{config}"], "embedding_dim = 1000000000000\n"),
        (["gen-data", "--out", "{out}/ds.txt", "--mkdirs", "--set", "input_dim=1000",
          "--set", "num_tuples=1000000000000000"], None),
    ], ids=["train embedding_dim", "gen-data num_tuples"])
    def test_out_of_memory(self, dataset_file, tmp_path, argv, config):
        out, config_file = tmp_path / "out", tmp_path / "model.cfg"
        config_file.write_text(config or "")
        code, err = run_process([a.format(dataset=dataset_file, out=out, config=config_file)
                                 for a in argv])
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists() or os.listdir(out) == []

    def test_report_after_the_failed_commands_frames_are_gone(self, monkeypatch):
        # what the failed command held is freed before the error line is written, so a
        # MemoryError's report does not compete for memory with the frames that ran out
        class Held:
            pass

        held, alive_at_report = [], []

        def exhausted(args):
            memory = Held()
            held.append(weakref.ref(memory))
            raise MemoryError

        def report(*args, **kwargs):
            alive_at_report.append(held[0]() is not None)
        monkeypatch.setitem(cli.COMMANDS, "gradcheck", (exhausted, "", []))
        monkeypatch.setattr("builtins.print", report)
        assert run(["gradcheck"]) == 2
        assert alive_at_report == [False]

    def test_memory_filled_under_an_address_space_limit(self):
        # a command fills a list until the limit the parent set stops it: one error line
        src = os.path.dirname(os.path.dirname(os.path.abspath(xmodal.__file__)))
        script = ("import sys\n"
                  "from xmodal import cli\n"
                  "def fill(args):\n"
                  "    held = []\n"
                  "    while True:\n"
                  "        held.append(bytes(1 << 16))\n"
                  "cli.COMMANDS['gradcheck'] = (fill, 'fill the address space', [])\n"
                  "sys.exit(cli.main(['gradcheck']))\n")
        limit = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: gradcheck: out of memory"]

    def test_bare_memory_error_names_the_command(self, tmp_path, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError
        monkeypatch.setattr("xmodal.cli.generate_synthetic", exhausted)
        assert run(["gen-data", "--out", str(tmp_path / "ds.txt")]) == 2
        assert capsys.readouterr().err == "error: gen-data: out of memory\n"

    def test_resume_from_finished_run(self, trained, tmp_path):
        dataset, ckpt = trained
        out = tmp_path / "resumed"
        code, err = run_process(["train", "--dataset", str(dataset), "--out-dir", str(out),
                                 "--epochs", "1", "--batch-size", "16",
                                 "--resume-from", str(ckpt)])
        assert code == 1
        assert err == [f"error: {ckpt}: checkpoint already completed the 1 requested "
                       "epochs (its last epoch is 0)"]
        assert not (out / "train_report.csv").exists()

    def test_dataset_is_a_directory(self, tmp_path):
        out = tmp_path / "out"
        code, err = run_process(["train", "--dataset", str(tmp_path), "--out-dir", str(out)])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]
        assert not out.exists()

    def test_out_dir_is_a_file(self, dataset_file, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code, err = run_process(["train", "--dataset", str(dataset_file), "--out-dir",
                                 str(taken), "--epochs", "1"])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]
        assert taken.read_text() == "kept\n"


class TestRetrieveCommand:
    def test_dump_format(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "run"
        run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
             "--epochs", "1", "--batch-size", "16"])
        capsys.readouterr()
        assert run(["retrieve", "--checkpoint", str(out / "checkpoint_epoch0.ckpt"),
                    "--dataset", str(dataset_file), "--query-id", "5", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        first = lines[0].split(",")
        assert first[0] == "5" and first[1] == "1"

    @pytest.mark.parametrize("src, tgt", [(0, 1), (1, 0), (1, 1)])
    def test_lines_equal_a_query_of_the_full_index(self, trained, capsys, src, tgt):
        dataset, ckpt = trained
        capsys.readouterr()
        assert run(["retrieve", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                    "--query-id", "17", "--src", str(src), "--tgt", str(tgt),
                    "--k", "6"]) == 0
        params, _, _, _ = load_checkpoint(ckpt)
        ds = load_dataset(dataset)
        query = embed(params, src, ds.features[src][ds.ids.tolist().index(17)][None])[0]
        items = retrieve(build_index(params, ds), query, tgt, 6, exclude_tuple_id=17)
        assert capsys.readouterr().out.splitlines() == \
            [f"17,{rank},{tid},{score:.17g}" for rank, (tid, score) in enumerate(items, 1)]

    def test_embeddings_are_constants(self, trained, monkeypatch, tmp_path):
        # evaluate and retrieve embed on the leaf arrays: no graph node is made
        dataset, ckpt = trained
        nodes, embedded = [], []
        monkeypatch.setattr("xmodal.tensor._make", lambda *args: nodes.append(args))
        for module in ("xmodal.cli", "xmodal.retrieval"):
            monkeypatch.setattr(f"{module}.embed",
                                lambda *args: embedded.append(args[1]) or embed(*args))
        assert run(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                    "--out", str(tmp_path / "m.csv"), "--direction", "both"]) == 0
        assert run(["retrieve", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                    "--query-id", "5", "--k", "3"]) == 0
        assert len(embedded) == 6    # evaluate: 2 index + 2 query batches; retrieve: 1 + 1
        assert nodes == []
        # the spy sees the node a forward pass makes
        forward_encoder(load_checkpoint(ckpt)[0], np.ones((1, 64)))
        assert len(nodes) == 1

    def test_label_sets_never_built(self, trained, monkeypatch):
        # a dataset holds its labels as the sidecar's offsets and ids, and nothing else
        # (besides the columns and label count, only the digest of the text it came from)
        dataset, ckpt = trained
        loaded = []
        monkeypatch.setattr("xmodal.cli.load_dataset",
                            lambda path: loaded.append(load_dataset(path)) or loaded[-1])
        assert run(["retrieve", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                    "--query-id", "5", "--k", "3"]) == 0
        assert len(loaded) == 1 and set(vars(loaded[0])) == {
            "ids", "features", "label_offsets", "label_ids", "num_labels", "sha256"}
        assert loaded[0].sha256 == hashlib.sha256(dataset.read_bytes()).hexdigest()
        assert loaded[0].label_offsets.dtype == loaded[0].label_ids.dtype == np.int64

    def test_query_id_not_in_dataset_one_line(self, trained):
        dataset, ckpt = trained
        code, err = run_process(["retrieve", "--checkpoint", str(ckpt),
                                 "--dataset", str(dataset), "--query-id", "99999"])
        assert code == 1
        assert err == ["error: tuple_id 99999 not in dataset"]

    def test_src_out_of_range_one_line(self, trained):
        dataset, ckpt = trained
        code, err = run_process(["retrieve", "--checkpoint", str(ckpt),
                                 "--dataset", str(dataset), "--query-id", "5", "--src", "5"])
        assert code == 1
        assert err == ["error: --src 5 outside [0, 2)"]


def _stdout(args, threads):
    """stdout of `python -m xmodal.cli ARGS` in a fresh interpreter at this many BLAS
    threads; the command must succeed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xmodal.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-m", "xmodal.cli", *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


class TestRetrieveMemo:
    """retrieve keeps the index it built for the next retrieve of the process, under the
    archive's digest, the model config and the parameter bytes; any other command drops
    it."""

    @staticmethod
    def _retrieve(capsys, ckpt, dataset, src=0, tgt=1, expect=0):
        capsys.readouterr()
        assert run(["retrieve", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                    "--query-id", "17", "--src", str(src), "--tgt", str(tgt),
                    "--k", "6"]) == expect
        return capsys.readouterr().out

    @pytest.fixture()
    def index_embeds(self, monkeypatch):
        """The modality of each embed call that builds an index."""
        calls = []
        monkeypatch.setattr("xmodal.retrieval.embed",
                            lambda params, m, x: calls.append(m) or embed(params, m, x))
        return calls

    @pytest.mark.parametrize("src, tgt", [(0, 1), (1, 0)])
    def test_hit_equals_a_cold_build_and_a_fresh_process(self, trained, capsys, index_embeds,
                                                         src, tgt):
        dataset, ckpt = trained
        cold = self._retrieve(capsys, ckpt, dataset, src, tgt)
        other = self._retrieve(capsys, ckpt, dataset, tgt, src)
        assert index_embeds == [tgt, src]
        hit = self._retrieve(capsys, ckpt, dataset, src, tgt)
        assert index_embeds == [tgt, src]   # served from the memo
        assert hit == cold == _stdout(["retrieve", "--checkpoint", str(ckpt), "--dataset",
                                       str(dataset), "--query-id", "17", "--src", str(src),
                                       "--tgt", str(tgt), "--k", "6"], 1)
        assert self._retrieve(capsys, ckpt, dataset, tgt, src) == other
        params = load_checkpoint(ckpt)[0]
        held = cli._INDEXES[1]
        for m in (0, 1):
            built = build_index(params, load_dataset(dataset), modalities=[m])._vectors[m]
            assert held[m]._vectors[m].tobytes() == built.tobytes()

    def test_hit_still_checks_the_dataset_against_the_model(self, trained, capsys,
                                                          monkeypatch):
        dataset, ckpt = trained
        self._retrieve(capsys, ckpt, dataset)
        checked = []
        monkeypatch.setattr(cli, "check_dataset", lambda config, ds: checked.append(ds))
        self._retrieve(capsys, ckpt, dataset)
        assert len(checked) == 1

    def test_one_flipped_parameter_bit_misses(self, trained, capsys, index_embeds, tmp_path):
        dataset, ckpt = trained
        blob = bytearray(ckpt.read_bytes())
        n = load_checkpoint(ckpt)[0].flat.size
        blob[len(blob) - 24 * n] ^= 1   # the lowest mantissa bit of the first parameter
        flipped = tmp_path / "flipped.ckpt"
        flipped.write_bytes(blob)
        assert load_checkpoint(flipped)[0].flat.tobytes() != \
            load_checkpoint(ckpt)[0].flat.tobytes()
        self._retrieve(capsys, ckpt, dataset)
        self._retrieve(capsys, flipped, dataset)
        assert index_embeds == [1, 1]
        assert cli._INDEXES[0][2] == load_checkpoint(flipped)[0].flat.tobytes()

    def test_another_config_with_equal_parameter_bytes_misses(self, trained, capsys,
                                                             index_embeds, tmp_path):
        dataset, ckpt = trained
        params, state, epoch, config = load_checkpoint(ckpt)
        relu = init_params(dataclasses.replace(config, activation="relu"), params.flat.copy())
        relu_ckpt = tmp_path / "relu.ckpt"
        save_checkpoint(relu, state, epoch, relu_ckpt)
        assert load_checkpoint(relu_ckpt)[0].flat.tobytes() == params.flat.tobytes()
        self._retrieve(capsys, ckpt, dataset)
        out = self._retrieve(capsys, relu_ckpt, dataset)
        assert index_embeds == [1, 1] and cli._INDEXES[0][1].activation == "relu"
        assert out == _stdout(["retrieve", "--checkpoint", str(relu_ckpt), "--dataset",
                               str(dataset), "--query-id", "17", "--k", "6"], 1)

    def test_archive_rewritten_inside_the_racy_window_misses(self, trained, capsys,
                                                             index_embeds, monkeypatch):
        # a same-size rewrite whose stat stays as it was: no archive was held, since the
        # stamp is not a window older than the clock, so the load hashes the rewritten
        # text and the rows memo misses
        dataset, ckpt = trained
        fstat, stamp = os.fstat, 10**18
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
            **{k: getattr(fstat(fd), k) for k in ("st_dev", "st_ino", "st_size")},
            st_mtime_ns=stamp, st_ctime_ns=stamp))
        monkeypatch.setattr(data_module, "_clock", lambda: stamp + data_module.RACY_WINDOW_NS)
        self._retrieve(capsys, ckpt, dataset)
        text = dataset.read_bytes()
        at = next(i for i in range(text.index(b"\t", text.index(b"\t") + 1), len(text))
                  if text[i] in b"12345678")   # a digit of the first feature
        with open(dataset, "r+b") as fh:
            fh.write(text[:at] + bytes([text[at] + 1]) + text[at + 1:])
        out = self._retrieve(capsys, ckpt, dataset)
        assert index_embeds == [1, 1]
        assert cli._INDEXES[0][0] == hashlib.sha256(dataset.read_bytes()).hexdigest()
        monkeypatch.undo()
        assert out == _stdout(["retrieve", "--checkpoint", str(ckpt), "--dataset",
                               str(dataset), "--query-id", "17", "--k", "6"], 1)

    @pytest.mark.parametrize("command", ["gen-data", "train", "evaluate", "gradcheck"])
    def test_any_other_command_empties_the_memo(self, trained, capsys, tmp_path, command):
        dataset, ckpt = trained
        self._retrieve(capsys, ckpt, dataset)
        assert cli._INDEXES is not None
        argv = {"gen-data": ["--out", str(tmp_path / "g.txt"), "--set", "num_tuples=20"],
                "train": ["--dataset", str(dataset), "--out-dir", str(tmp_path / "t"),
                          "--epochs", "1"],
                "evaluate": ["--checkpoint", str(ckpt), "--dataset", str(dataset),
                             "--out", str(tmp_path / "m.csv")],
                "gradcheck": ["--trials", "1"]}[command]
        assert run([command, *argv]) == 0
        assert cli._INDEXES is None

    def test_stored_rows_are_read_only(self, trained, capsys):
        dataset, ckpt = trained
        self._retrieve(capsys, ckpt, dataset, 0, 1)
        self._retrieve(capsys, ckpt, dataset, 1, 0)
        held = cli._INDEXES[1]
        assert sorted(held) == [0, 1]
        for m, index in held.items():
            assert not index._vectors[m].flags.writeable
            with pytest.raises(ValueError):
                index._vectors[m][0, 0] = 1.0

    def test_holds_neither_the_sidecar_payload_nor_the_checkpoint_buffer(
            self, trained, capsys, monkeypatch):
        # ds.ids and params.flat are views of the buffers the files were read into: once
        # the command returns, nothing holds those buffers. The clock reads 0, so that
        # load_dataset holds no archive whatever the files' age (TestHeldArchive in
        # test_data.py covers what it holds)
        dataset, ckpt = trained
        monkeypatch.setattr(data_module, "_clock", lambda: 0)
        buffers = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: buffers.append(
            weakref.ref(load_checkpoint(path)[0].flat.base)) or load_checkpoint(path))
        monkeypatch.setattr(cli, "load_dataset", lambda path: buffers.append(
            weakref.ref(load_dataset(path).ids.base)) or load_dataset(path))
        self._retrieve(capsys, ckpt, dataset)
        gc.collect()
        assert cli._INDEXES is not None and len(buffers) == 2
        assert [ref() for ref in buffers] == [None, None]
        for m, index in cli._INDEXES[1].items():   # each array owns its memory
            for array in (index._vectors[m], index.ids, index.label_offsets, index.label_ids):
                assert array.base is None

    def test_failing_build_stores_nothing(self, trained, capsys, tmp_path):
        # the checkpoint of test_zero_embedding_is_two, after a retrieve that stored rows
        dataset, ckpt = trained
        params, state, epoch, _ = load_checkpoint(ckpt)
        for t in params.encoder:
            t.data[...] = 0.0
        zero = tmp_path / "zero.ckpt"
        save_checkpoint(params, state, epoch, zero)
        self._retrieve(capsys, ckpt, dataset)
        assert cli._INDEXES is not None
        self._retrieve(capsys, zero, dataset, expect=2)
        assert cli._INDEXES is None

    def test_dataset_without_a_digest_is_not_memoised(self, trained):
        dataset, ckpt = trained
        params, ds = load_checkpoint(ckpt)[0], load_dataset(dataset)
        taken = ds.take(np.arange(len(ds)))
        assert taken.sha256 is None
        index = cli._target_index(params, taken, 1)
        assert cli._INDEXES is None
        assert index._vectors[1].tobytes() == \
            build_index(params, ds, modalities=[1])._vectors[1].tobytes()


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run(["gradcheck", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert out.count("max rel error") == 4

    @pytest.mark.parametrize("term, name, loss", [
        ("mim", "loss_mim", loss_mim), ("mde", "loss_mde", loss_mde),
        ("msp", "loss_msp", loss_msp), ("combined", "combined_loss", combined_loss)])
    def test_each_term_is_measured(self, capsys, monkeypatch, term, name, loss):
        # the term's loss, its value unchanged, hands its input a gradient off by one
        def off_by_one(x, *rest):
            return loss(T.node(x.data, (x,), lambda g: (g + 1.0,)), *rest)
        monkeypatch.setattr(cli, name, off_by_one)
        assert run(["gradcheck", "--trials", "1"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines if line.endswith("FAIL")] == [term]
        assert lines[-1] == f"gradcheck FAILED for: {term}"

    @pytest.mark.parametrize("argv", [["--trials", "0"], ["--seed", "-1"], ["--dims", "0"],
                                      ["--dims", "-2"], ["--batch", "-3"], ["--batch", "1"]],
                             ids=lambda argv: "".join(argv).lstrip("-"))
    def test_zero_trials_rejected(self, argv):
        # each is refused before anything is drawn: exit 1 with one line
        code, err = run_process(["gradcheck", "--trials", "1", *argv])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: gradcheck needs")


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 1

    def test_missing_file_is_one(self, tmp_path):
        assert run(["train", "--dataset", str(tmp_path / "nope.txt"),
                    "--out-dir", str(tmp_path / "out")]) == 1

    def test_degenerate_features_is_two(self, dataset_file, tmp_path):
        ds = load_dataset(dataset_file)
        ds = TupleDataset(ds.ids, [np.zeros_like(f) for f in ds.features], ds.label_offsets,
                          ds.label_ids, ds.num_labels)
        zeros = tmp_path / "zeros.txt"
        save_dataset(ds, zeros)
        code, err = run_process(["train", "--dataset", str(zeros),
                                 "--out-dir", str(tmp_path / "out"), "--epochs", "1"])
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "zero-norm" in err[0]

    def test_zero_embedding_is_two(self, trained, tmp_path):
        # a finite checkpoint whose encoder maps every tuple to the zero vector
        dataset, ckpt = trained
        params, state, epoch, _ = load_checkpoint(ckpt)
        for t in params.encoder:
            t.data[...] = 0.0
        zero = tmp_path / "zero.ckpt"
        save_checkpoint(params, state, epoch, zero)
        out = tmp_path / "out"
        out.mkdir()
        metrics = out / "m.csv"
        for argv in (["evaluate", "--out", str(metrics)],
                     ["retrieve", "--query-id", str(load_dataset(dataset).ids[0])]):
            code, err = run_process([*argv, "--checkpoint", str(zero), "--dataset", str(dataset)])
            assert code == 2
            assert len(err) == 1 and re.fullmatch(r"error: zero-norm embedding for tuple \d+",
                                                  err[0])
        assert os.listdir(out) == []


    def test_zero_query_embedding_is_two(self, trained, tmp_path):
        # modality 0's last backbone layer and the shared encoder bias zeroed: modality 0
        # embeds to the zero vector and modality 1 does not, so retrieve's index of
        # modality 1 passes its check and the query's check fires
        dataset, ckpt = trained
        params, state, epoch, _ = load_checkpoint(ckpt)
        for t in params.backbone[-1]:
            t.data[0] = 0.0
        params.encoder[1].data[...] = 0.0
        zero = tmp_path / "zero_query.ckpt"
        save_checkpoint(params, state, epoch, zero)
        code, err = run_process(["retrieve", "--checkpoint", str(zero), "--dataset",
                                 str(dataset), "--query-id", "5", "--src", "0", "--tgt", "1"])
        assert code == 2
        assert err == ["error: zero-norm query embedding"]


COMMAND_NAMES = ["gen-data", "train", "evaluate", "retrieve", "gradcheck"]


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), which is to exit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestLeanParser:
    """main builds the invoked command's subparser alone, and parses and prints as
    the parser of every command does."""

    @pytest.mark.parametrize("command", COMMAND_NAMES)
    def test_command_help_equals_the_full_parser(self, command, capsys, monkeypatch):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert _exit(capsys, [command, "--help"]) == (0, full, "")
        monkeypatch.setattr(sys, "argv", ["xmodal", command, "--help"])
        assert _exit(capsys, None) == (0, full, "")

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, _ = _exit(capsys, ["--help"])
        assert code == 0 and "{" + ",".join(COMMAND_NAMES) + "}" in out
        assert all(f"    {name}" in out for name in COMMAND_NAMES)

    def test_version_exits_zero(self, capsys):
        assert _exit(capsys, ["--version"]) == (0, f"{xmodal.__version__}\n", "")

    @pytest.mark.parametrize("argv, message", [
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        (["retrieve", "--checkpoint", "c.ckpt", "--dataset", "d.txt"],
         "the following arguments are required: --query-id"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown command", "missing flag", "no command"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        code, out, err = _exit(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: xmodal") and message in err

    @pytest.mark.parametrize("argv", [
        ["-h", "retrieve"], ["--help"], ["retrieve", "-h"], ["--version", "retrieve"],
        ["retrieve", "--checkpoint", "c", "--dataset", "d", "--query-id", "1", "extra"],
        ["retrieve", "--bogus", "1", "--checkpoint", "c", "--dataset", "d", "--query-id", "1"],
        ["nosuch"], [], ["--he", "train"], ["--", "retrieve", "-h"]])
    def test_output_equals_the_full_parser(self, capsys, monkeypatch, argv):
        lean = _exit(capsys, argv)
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
        assert lean == _exit(capsys, argv)

    @pytest.mark.parametrize("argv, built", [
        (["retrieve", "--help"], "retrieve"), (["--version", "train", "--help"], "train"),
        (["--help"], None), (["nosuch"], None)])
    def test_builds_the_invoked_command_alone(self, capsys, monkeypatch, argv, built):
        calls = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: calls.append(command) or build_parser(command))
        _exit(capsys, argv)
        assert calls == [built]


class TestParserMemo:
    """main builds each command's parser once per process, and a replaced COMMANDS
    entry gets a fresh one."""

    def test_repeated_calls_build_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(cli, "_PARSERS", {})
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(kwargs.get("prog"))
                            or init(self, *args, **kwargs))
        for _ in range(4):
            assert run(["gradcheck", "--trials", "1"]) == 0
        # the top-level parser and the gradcheck subparser
        assert built == ["xmodal", "xmodal gradcheck"]

    @pytest.mark.parametrize("sequence", [
        [(["gradcheck", "--trials", "x"], 1), (["gradcheck", "--trials", "1"], 0),
         (["gradcheck", "--bogus"], 1), (["gradcheck", "--help"], 0),
         (["gradcheck", "--trials", "1"], 0)],
        [(["nosuch"], 1), (["--help"], 0), (["-h", "retrieve"], 0), ([], 1)],
    ], ids=["gradcheck", "every command"])
    def test_cached_parser_prints_what_a_fresh_one_does(self, capsys, monkeypatch, sequence):
        # a usage error leaves nothing behind in the parser that serves the next call
        def outputs(fresh):
            monkeypatch.setattr(cli, "_PARSERS", {})
            results = []
            for argv, _ in sequence:
                if fresh:
                    monkeypatch.setattr(cli, "_PARSERS", {})
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                results.append((code, *capsys.readouterr()))
            return results

        cached = outputs(fresh=False)
        assert [code for code, _, _ in cached] == [code for _, code in sequence]
        assert cached == outputs(fresh=True)

    def test_replaced_entry_dispatches_and_leaves_no_stale_parser(self, capsys, monkeypatch):
        calls = []
        original = cli.COMMANDS["gradcheck"]
        assert run(["gradcheck", "--trials", "1"]) == 0   # the parser is cached
        # a new function under the same arguments is the one called
        monkeypatch.setitem(cli.COMMANDS, "gradcheck",
                            (lambda args: calls.append(args.trials) or 0, *original[1:]))
        assert run(["gradcheck", "--trials", "3"]) == 0 and calls == [3]
        # new arguments get a parser of their own
        monkeypatch.setitem(cli.COMMANDS, "gradcheck",
                            (lambda args: calls.append(args.depth) or 0, "", [
                                ("--depth", {"type": int, "default": 2})]))
        assert run(["gradcheck"]) == 0 and calls == [3, 2]
        monkeypatch.undo()
        capsys.readouterr()
        # the restored entry parses and runs as before
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--depth", "2"])
        assert exc.value.code == 1
        assert run(["gradcheck", "--trials", "1"]) == 0
        assert "gradcheck passed" in capsys.readouterr().out
