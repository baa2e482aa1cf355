"""Mutated sidecars and checkpoint headers, and drawn argument values, run through
evaluate and retrieve in process.

A mutated ``.cols`` sidecar no longer proves itself the text's, so the loader falls
back to the text: the run exits 0 with exactly the unmutated outputs, or fails with
one stderr line. A mutated checkpoint header ends in exit 0, 1 or 2; a failure prints
one stderr line and leaves no ``--out`` file. Nothing ends in a traceback or a
warning. The examples are derandomized and bounded in number (a few seconds in all),
and each run holds at most ``HEADROOM`` bytes of address space past what the process
maps before it, so that an amplification fails the test rather than the machine.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import struct
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from xmodal import cli
from xmodal.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)
FUZZ_ARGUMENTS = settings(FUZZ, max_examples=100)
HEADROOM = 1 << 29
PREFIX = struct.Struct("<6sII")   # the container's magic, version and header length


@contextlib.contextmanager
def address_space_headroom():
    """RLIMIT_AS at HEADROOM bytes past the current mapping (Linux), restored after."""
    try:
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:   # no /proc: no limit
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = mapped + HEADROOM
    resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY
                                            else min(limit, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run(argv):
    """(exit code, stdout, stderr lines) of one in-process command; a warning fails it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                address_space_headroom():
            code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue().splitlines()


def assert_one_line_failure(code, err):
    assert code in (1, 2), err
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "out of memory" not in err[0], err   # a mutation that amplifies memory


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The archive, its sidecar's bytes, a checkpoint's bytes, and the outputs of an
    evaluate and a retrieve on them."""
    root = tmp_path_factory.mktemp("fuzz")
    archive, run_dir = root / "ds.txt", root / "run"
    assert run(["gen-data", "--out", archive, "--seed", "5", "--set", "num_tuples=60",
                "--set", "multi_label=true", "--set", "num_classes=12"])[0] == 0
    assert run(["train", "--dataset", archive, "--out-dir", run_dir, "--epochs", "1",
                "--batch-size", "8"])[0] == 0
    ckpt = run_dir / "checkpoint_epoch0.ckpt"
    files = {"root": root, "archive": archive, "sidecar": (root / "ds.txt.cols").read_bytes(),
             "ckpt": ckpt, "ckpt_bytes": ckpt.read_bytes()}
    files["expected"] = outputs(files, ckpt)[:2]
    return files


def outputs(files, ckpt):
    """((code, stdout, stderr, metrics bytes or None), (code, stdout, stderr), the files
    evaluate left) of an evaluate --direction both into a fresh directory, removed after,
    and a retrieve, on ``ckpt``."""
    out_dir = files["root"] / "out"
    out_dir.mkdir()
    try:
        metrics = out_dir / "m.csv"
        code, stdout, err = run(["evaluate", "--checkpoint", ckpt, "--dataset",
                                 files["archive"], "--direction", "both", "--k", "5",
                                 "--out", metrics])
        evaluate = code, stdout, err, metrics.read_bytes() if metrics.exists() else None
        written = sorted(os.listdir(out_dir))
    finally:
        shutil.rmtree(out_dir)
    retrieve = run(["retrieve", "--checkpoint", ckpt, "--dataset", files["archive"],
                    "--query-id", "7", "--src", "1", "--tgt", "0", "--k", "5"])
    return evaluate, retrieve, written


@st.composite
def sidecar_mutations(draw, data):
    """``data`` with one byte replaced, cut short, or lengthened."""
    kind = draw(st.sampled_from(["byte", "cut", "extend"]))
    # the prefix and JSON header come first: positions there are drawn as often
    at = draw(st.one_of(st.integers(0, 160), st.integers(0, len(data) - 1)))
    if kind == "byte":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    return data + draw(st.binary(min_size=1, max_size=16))


def header_paths(value, path=()):
    """Every key path into a JSON value, parents before their children."""
    paths = [path] if path else []
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        paths += header_paths(child, path + (key,))
    return paths


DELETE = object()
# the value itself in another type, as a hand edit may write it: 2.0 or "2" for 2
RETYPED = [lambda v: float(v) if isinstance(v, int) else v, str, lambda v: [v]]
VALUES = st.one_of(st.just(DELETE), st.sampled_from(RETYPED), st.integers(-2, 130),
                   st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.none(),
                   st.text(max_size=6), st.lists(st.integers(-2, 130), max_size=3),
                   st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


def split_checkpoint(blob):
    """(magic, version, JSON header, payload) of a checkpoint's bytes."""
    magic, version, header_len = PREFIX.unpack_from(blob)
    end = PREFIX.size + header_len
    return magic, version, json.loads(blob[PREFIX.size:end]), blob[end:]


def mutate_header(blob, path, value):
    """The checkpoint ``blob`` with the JSON header value at ``path`` replaced by
    ``value``, retyped by it (one of RETYPED), or deleted (DELETE)."""
    magic, version, header, payload = split_checkpoint(blob)
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value(parent[path[-1]]) if value in RETYPED else value
    raw = json.dumps(header).encode()
    return PREFIX.pack(magic, version, len(raw)) + raw + payload


def check_mutated_checkpoint(files, blob):
    """Evaluate and retrieve on the checkpoint ``blob`` end in exit 0, or in exit 1 or 2
    with one stderr line; a failed evaluate leaves no metrics file, manifest or tmp."""
    ckpt = files["root"] / "mutated.ckpt"
    ckpt.write_bytes(blob)
    evaluate, retrieve, written = outputs(files, ckpt)
    for code, _, err, *_ in (evaluate, retrieve):
        if code == 0:
            assert err == []
        else:
            assert_one_line_failure(code, err)
    assert written == ([] if evaluate[0] else ["m.csv", "manifest_evaluate.json"])


class TestSidecarMutations:
    @FUZZ
    @given(data=st.data())
    def test_falls_back_to_the_text_or_fails_in_one_line(self, files, data):
        sidecar = files["root"] / "ds.txt.cols"
        sidecar.write_bytes(data.draw(sidecar_mutations(files["sidecar"])))
        try:
            evaluate, retrieve, _ = outputs(files, files["ckpt"])
        finally:
            sidecar.write_bytes(files["sidecar"])
        expected_evaluate, expected_retrieve = files["expected"]
        for got, expected in ((evaluate, expected_evaluate), (retrieve, expected_retrieve)):
            if got[0] == 0:
                assert got == expected
            else:
                assert_one_line_failure(got[0], got[2])


# every model_config field, then the epoch and Adam step counts
SCALAR_PATHS = [("model_config", key) for key in ("num_modalities", "input_dim",
                                                  "backbone_hidden_dims", "feature_dim",
                                                  "embedding_dim", "activation", "seed")]
SCALAR_PATHS += [("epoch",), ("adam_step",)]


class TestCheckpointHeaderMutations:
    @FUZZ
    @given(data=st.data())
    def test_exit_code_and_one_line(self, files, data):
        paths = header_paths(split_checkpoint(files["ckpt_bytes"])[2])
        path = data.draw(st.one_of(st.sampled_from(SCALAR_PATHS), st.sampled_from(paths)))
        check_mutated_checkpoint(files, mutate_header(files["ckpt_bytes"], path,
                                                      data.draw(VALUES)))

    @pytest.mark.parametrize("path", SCALAR_PATHS, ids="/".join)
    @pytest.mark.parametrize("value", [DELETE, *RETYPED], ids=["deleted", "float", "str", "list"])
    def test_every_field_deleted_or_retyped(self, files, path, value):
        # mutations the random draws rarely meet, such as 2.0 for num_modalities
        check_mutated_checkpoint(files, mutate_header(files["ckpt_bytes"], path, value))


# ints in and around the archive's modalities, and past int64
MODALITY_INTS = st.one_of(st.integers(-1, 2), st.integers(-2**70, 2**70))
# --direction text: both, the archive's directions with leading zeros, SRC->TGT of any
# such ints, and any text
DIRECTIONS = st.one_of(st.just("both"), st.from_regex(r"0*[01]->0*[01]", fullmatch=True),
                       st.builds("{}->{}".format, MODALITY_INTS, MODALITY_INTS),
                       st.text(max_size=8))
# retrieve's --query-id, --src and --tgt: the archive's ids 0 to 59 with its modalities,
# or any three ints
RETRIEVE_INTS = st.one_of(st.tuples(st.integers(0, 59), st.integers(0, 1), st.integers(0, 1)),
                          st.tuples(st.integers(-2, 61), MODALITY_INTS, MODALITY_INTS),
                          st.tuples(*[st.integers(-2**70, 2**70)] * 3))


def alone(argv):
    """``run(argv)`` with no index kept by an earlier retrieve of the process."""
    cli._INDEXES = None
    return run(argv)


class TestArgumentValues:
    """evaluate's --direction and retrieve's --query-id, --src and --tgt, one example after
    another in one process: exit 0 with the outputs of the same argv run alone, or exit 1
    or 2 with one stderr line and no --out file."""

    @FUZZ_ARGUMENTS
    @given(direction=DIRECTIONS)
    def test_evaluate_direction(self, files, direction):
        metrics = files["root"] / "direction.csv"
        argv = ["evaluate", "--checkpoint", files["ckpt"], "--dataset", files["archive"],
                f"--direction={direction}", "--k", "5", "--out", metrics]
        code, stdout, err = run(argv)
        if code:
            assert_one_line_failure(code, err)
            assert not metrics.exists()
            return
        first = metrics.read_bytes()
        metrics.unlink()
        assert (code, stdout, err) == alone(argv) and metrics.read_bytes() == first
        metrics.unlink()

    @FUZZ_ARGUMENTS
    @given(ints=RETRIEVE_INTS)
    def test_retrieve_ints(self, files, ints):
        query_id, src, tgt = ints
        argv = ["retrieve", "--checkpoint", files["ckpt"], "--dataset", files["archive"],
                f"--query-id={query_id}", f"--src={src}", f"--tgt={tgt}", "--k", "5"]
        code, stdout, err = run(argv)
        if code:
            assert_one_line_failure(code, err)
        else:
            assert (code, stdout, err) == alone(argv)
