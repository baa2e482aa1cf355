"""Command-line front door: gen-data, train, evaluate, retrieve, gradcheck.

gen-data, train and evaluate write a run manifest next to their outputs recording
the fully resolved configuration, seeds, paths (with the archive's digest for train
and evaluate, and a resumed train's checkpoint digest) and the Python and NumPy
versions. Exit codes: 0 success, 1 usage or config error, 2 runtime/numeric failure.
"""

import argparse
import dataclasses
import datetime
import itertools
import json
import os
import platform
import re
import sys

import numpy as np

from . import __version__
from . import tensor as T
from .data import (SynthConfig, file_sha256, generate_synthetic, load_dataset, save_dataset, split,
                   write_atomic)
from .errors import ContractError, DatasetFormatError, ShapeMismatchError, XmodalError
from .losses import LossWeights, combined_loss, loss_mde, loss_mim, loss_msp, row_squares
from .model import ModelConfig, check_dataset, embed
from .retrieval import (build_index, evaluate_cross_modal, metrics_to_csv, retrieve,
                        summary_table, unit_query_rows)
from .trainer import TrainConfig, load_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
# Errors of usage, config or input files exit 1. Every other package error
# (checkpoint, degenerate input, divergence) and arithmetic failures exit 2.
USAGE_ERRORS = (ContractError, DatasetFormatError, ShapeMismatchError, OSError)


def read_kv(path, sets):
    """{key: value text} of a key=value file, then of the --set items over it.

    In the file, which must be UTF-8 (a leading byte-order mark is dropped), blank
    lines and lines starting with '#' are skipped. Keys and values are stripped of
    surrounding whitespace.
    """
    items = []
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                for lineno, raw in enumerate(fh, 1):
                    line = raw.strip()
                    if line and not line.startswith("#"):
                        items.append((line, f"{path}:{lineno}: expected key=value"))
        except UnicodeDecodeError:
            # the undecodable text itself is not shown: stderr may not encode it
            raise ContractError(f"{path}: not UTF-8 text") from None
    items += [(item, "--set expects key=value") for item in sets or []]
    values = {}
    for item, problem in items:
        if "=" not in item:
            raise ContractError(f"{problem}, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _cast(text, kind):
    if kind is bool:
        return _BOOLS[text.lower()]
    if kind is tuple:
        return tuple(int(part) for part in text.split(","))
    return kind(text)


def typed_config(cls, values):
    """cls(**values), each string value cast by the type of its dataclass field.

    int, float and str cast directly; tuple reads comma-separated ints; bool
    reads true/false/yes/no/1/0 in any case. A field whose default is None
    also reads none (any case) or an empty value as None. Values that are not
    strings, such as those of typed flags, pass through unchanged.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in fields:
            raise ContractError(f"unknown {cls.__name__} key {key!r}")
        field = fields[key]
        if not isinstance(value, str):
            kwargs[key] = value
        elif field.default is None and value.lower() in ("", "none"):
            kwargs[key] = None
        else:
            try:
                kwargs[key] = _cast(value, field.type)
            except (KeyError, ValueError):
                raise ContractError(f"{cls.__name__} {key}={value!r} is not a valid "
                                    f"{field.type.__name__}") from None
    return cls(**kwargs)


def _write_manifest(out_dir, command, config, inputs, outputs, seed, started):
    manifest = {"command": command, "config": config, "inputs": inputs, "outputs": outputs,
                "seed": seed, "tool_version": __version__,
                "python_version": platform.python_version(), "numpy_version": np.__version__,
                "started": started, "finished": _now()}
    path = os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json")
    write_atomic(path, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
    return path


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _ensure_out_dir(path, mkdirs):
    """The directory of the output file ``path``; with mkdirs it is created if missing."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        if mkdirs:
            os.makedirs(directory, exist_ok=True)
        else:
            raise ContractError(f"output directory {directory!r} does not exist "
                                "(pass --mkdirs to create it)")
    return directory


def _split_dataset(ds, fractions_str, seed):
    try:
        fractions = tuple(float(f) for f in fractions_str.split(","))
    except ValueError:
        raise ContractError(f"--split expects comma-separated fractions, "
                            f"got {fractions_str!r}") from None
    return split(ds, fractions, seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    started = _now()
    values = read_kv(args.config, args.set)
    if args.seed is not None:
        values["seed"] = args.seed
    config = typed_config(SynthConfig, values)
    out_dir = _ensure_out_dir(args.out, args.mkdirs)
    ds = generate_synthetic(config)
    save_dataset(ds, args.out)
    _write_manifest(out_dir, "gen-data", dataclasses.asdict(config),
                    {"config_file": args.config},
                    {"dataset": args.out, "columns": args.out + ".cols"},
                    config.seed, started)
    print(f"wrote {len(ds)} tuples x {ds.num_modalities} modalities to {args.out}")
    return EXIT_OK


def cmd_train(args):
    started = _now()
    ds = load_dataset(args.dataset)
    # the --model-config file overrides the dataset's input_dim and num_modalities, so
    # train rejects a mismatch; typed flags override --set, which overrides the file
    model_config = typed_config(ModelConfig, {"input_dim": ds.input_dim,
                                              "num_modalities": ds.num_modalities,
                                              **read_kv(args.model_config, None)})
    train_values = read_kv(args.train_config, args.set)
    flags = {"epochs": args.epochs, "batch_size": args.batch_size,
             "learning_rate": args.lr, "seed": args.seed}
    train_values.update((key, value) for key, value in flags.items() if value is not None)
    train_config = typed_config(TrainConfig, train_values)

    # only the train and val parts stay: the archive's columns and the test part go here
    ds_train, ds_val = _split_dataset(ds, args.split, args.split_seed)[:2]
    dataset_sha256 = ds.sha256   # proven by load_dataset: no second hash
    del ds
    params, report = train(ds_train, ds_val, model_config, train_config,
                           out_dir=args.out_dir, resume_from=args.resume_from)
    csv_path = os.path.join(args.out_dir, "train_report.csv")
    report.to_csv(csv_path)
    final = report.epochs[-1]
    ckpt = os.path.join(args.out_dir, f"checkpoint_epoch{final.epoch}.ckpt")
    # a resumed run starts at the epoch after the checkpoint's
    resumed = None if args.resume_from is None else {
        "path": args.resume_from, "epoch": report.epochs[0].epoch - 1,
        "sha256": file_sha256(args.resume_from)}
    _write_manifest(args.out_dir, "train",
                    {"model": dataclasses.asdict(model_config),
                     "train": dataclasses.asdict(train_config),
                     "split": args.split, "split_seed": args.split_seed},
                    {"dataset": args.dataset, "dataset_sha256": dataset_sha256,
                     "resume_from": resumed},
                    {"report_csv": csv_path, "checkpoint": ckpt},
                    train_config.seed, started)
    print(f"epoch {final.epoch}: mim={final.mim:.6f} mde={final.mde:.6f} "
          f"msp={final.msp:.6f} total={final.total:.6f} "
          f"alpha={final.alpha:.6g} beta={final.beta:.6g}")
    return EXIT_OK


_SPLIT_INDEX = {"train": 0, "val": 1, "test": 2}


def _parse_direction(text, num_modalities):
    """'both' is every ordered pair of distinct modalities; else exactly 'SRC->TGT'."""
    if text == "both":
        return [(src, tgt) for src in range(num_modalities)
                for tgt in range(num_modalities) if src != tgt]
    match = re.fullmatch(r"(\d+)->(\d+)", text)
    if match is None:
        raise ContractError(f"--direction expects 'both' or SRC->TGT, got {text!r}")
    return [(int(match[1]), int(match[2]))]


def cmd_evaluate(args):
    """Writes every direction's metrics, in ``_parse_direction`` order. The archive's
    columns and the split part neither set reads are freed once the split is taken, and
    each source modality's query rows are embedded once, for all of its directions, and
    freed before the next source's are embedded."""
    started = _now()
    params, _, _, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    dataset_sha256 = ds.sha256
    parts = _split_dataset(ds, args.split, args.split_seed)
    query_ds = parts[_SPLIT_INDEX[args.query_split]]
    index_ds = parts[_SPLIT_INDEX[args.index_split]]
    del ds, parts
    index = build_index(params, index_ds)

    reports = []
    for src, group in itertools.groupby(_parse_direction(args.direction, index.num_modalities),
                                        key=lambda direction: direction[0]):
        queries = unit_query_rows(params, index, query_ds, src)
        reports += [evaluate_cross_modal(params, index, query_ds, src, tgt, k=args.k,
                                         queries=queries) for _, tgt in group]
        del queries
    out_dir = _ensure_out_dir(args.out, args.mkdirs)
    metrics_to_csv(reports, args.out)
    _write_manifest(out_dir, "evaluate",
                    {"k": args.k, "direction": args.direction,
                     "query_split": args.query_split, "index_split": args.index_split,
                     "split": args.split, "split_seed": args.split_seed},
                    {"checkpoint": args.checkpoint, "dataset": args.dataset,
                     "dataset_sha256": dataset_sha256},
                    {"metrics_csv": args.out}, args.split_seed, started)
    print(summary_table(reports))
    return EXIT_OK


# The index retrieve built for each target modality, kept for the next retrieve of this
# process: (identity, {target modality: EmbeddingIndex with read-only rows}), the
# identity being the archive's proven SHA-256, the ModelConfig and the parameter vector's
# bytes. main drops it before any other command.
_INDEXES = None


def _target_index(params, ds, tgt):
    """``build_index(params, ds, [tgt])``, taken from ``_INDEXES`` when it is held for
    this identity (bit-identical: the same inputs embed to the same bytes), and kept
    there after a build. A dataset with no digest is never memoised; another identity
    replaces the memo, dropped before the build."""
    global _INDEXES
    identity = ds.sha256 and (ds.sha256, params.config, params.flat.tobytes())
    held = _INDEXES[1] if _INDEXES is not None and _INDEXES[0] == identity else {}
    if tgt in held:
        check_dataset(params.config, ds)
        return held[tgt]
    if not held:
        _INDEXES = None   # another identity's indexes go before this build
    index = build_index(params, ds, modalities=[tgt])
    if identity:
        index._vectors[tgt].flags.writeable = False
        _INDEXES = identity, {**held, tgt: index}
    return index


def cmd_retrieve(args):
    params, _, _, _ = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    row = np.flatnonzero(ds.ids == args.query_id)
    if not len(row):
        raise ContractError(f"tuple_id {args.query_id} not in dataset")
    for flag, m in (("--src", args.src), ("--tgt", args.tgt)):
        if not 0 <= m < ds.num_modalities:
            raise ContractError(f"{flag} {m} outside [0, {ds.num_modalities})")
    # the target modality alone is indexed, once the modality count and input dim are checked
    index = _target_index(params, ds, args.tgt)
    q = embed(params, args.src, ds.features[args.src][row])[0]
    items = retrieve(index, q, args.tgt, args.k, exclude_tuple_id=args.query_id)
    for rank, (tid, score) in enumerate(items, 1):
        print(f"{args.query_id},{rank},{tid},{score:.17g}")
    return EXIT_OK


def cmd_gradcheck(args):
    if args.trials < 1 or args.dims < 1 or args.batch < 2 or args.seed < 0:
        raise ContractError("gradcheck needs --trials >= 1, --dims >= 1, --batch >= 2, --seed >= 0")
    rng = np.random.default_rng(args.seed)
    t_batch, dim = args.batch, args.dims
    worst = {"mim": 0.0, "mde": 0.0, "msp": 0.0, "combined": 0.0}
    weights = LossWeights(alpha=0.7, beta=0.4, tau=0.2)

    def check(name, f, x0):
        """Gradient of f at the two-modality stack x0 against finite differences."""
        x = T.Tensor(x0, grad_enabled=True)
        T.backward(f(x))
        numeric = T.finite_diff_grad(f, x0, h=1e-5).data
        worst[name] = max(worst[name], T.rel_error(x.grad, numeric))

    for _ in range(args.trials):
        z_j = rng.normal(size=(t_batch, dim))
        z_k = rng.normal(size=(t_batch, dim))
        y_k = rng.normal(size=(t_batch, dim))
        z, y = np.stack([z_j, z_k]), np.stack([z_j, y_k])
        check("mim", lambda x: T.mean(loss_mim(x, row_squares(x.data), 0.2)), z)
        check("mde", lambda x: T.mean(loss_mde(x, row_squares(x.data))), y)
        check("msp", lambda x: T.mean(loss_msp(x, row_squares(x.data))), y)
        # the stack is both the embeddings and the features of every loss
        check("combined", lambda x: combined_loss(x, x, weights).total_node, y)
    failed = [name for name, err in worst.items() if err >= 1e-4]
    for name, err in worst.items():
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<10} max rel error {err:.3e}  {status}")
    if failed:
        print(f"gradcheck FAILED for: {', '.join(failed)}")
        return EXIT_RUNTIME
    print("gradcheck passed")
    return EXIT_OK


# ---------------------------------------------------------------------------

# Each command's function, help line and arguments, as (flag, add_argument keywords).
_SPLIT_ARGS = [("--split", {"default": "0.52,0.24,0.24"}),
               ("--split-seed", {"type": int, "default": 0})]
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic paired-modality dataset", [
        ("--config", {"help": "key=value SynthConfig file"}), ("--out", {"required": True}),
        ("--seed", {"type": int}), ("--set", {"action": "append", "metavar": "KEY=VALUE"}),
        ("--mkdirs", {"action": "store_true"})]),
    "train": (cmd_train, "train the model on a dataset", [
        ("--dataset", {"required": True}), ("--out-dir", {"required": True}),
        ("--model-config", {"help": "key=value ModelConfig file"}),
        ("--train-config", {"help": "key=value TrainConfig file"}),
        ("--set", {"action": "append", "metavar": "KEY=VALUE"}), ("--epochs", {"type": int}),
        ("--batch-size", {"type": int}), ("--lr", {"type": float}), ("--seed", {"type": int}),
        *_SPLIT_ARGS, ("--resume-from", {})]),
    "evaluate": (cmd_evaluate, "cross-modal retrieval metrics", [
        ("--checkpoint", {"required": True}), ("--dataset", {"required": True}),
        ("--query-split", {"default": "train", "choices": sorted(_SPLIT_INDEX)}),
        ("--index-split", {"default": "test", "choices": sorted(_SPLIT_INDEX)}),
        ("--direction", {"default": "both",
                         "help": "'both' or 'SRC->TGT' with modality indices"}),
        ("--k", {"type": int, "default": 8}), *_SPLIT_ARGS, ("--out", {"required": True}),
        ("--mkdirs", {"action": "store_true"})]),
    "retrieve": (cmd_retrieve, "dump ranked results for a single query", [
        ("--checkpoint", {"required": True}), ("--dataset", {"required": True}),
        ("--query-id", {"type": int, "required": True}), ("--src", {"type": int, "default": 0}),
        ("--tgt", {"type": int, "default": 1}), ("--k", {"type": int, "default": 8})]),
    "gradcheck": (cmd_gradcheck, "finite-difference check of all loss gradients", [
        ("--trials", {"type": int, "default": 20}), ("--batch", {"type": int, "default": 4}),
        ("--dims", {"type": int, "default": 8}), ("--seed", {"type": int, "default": 0})]),
}


# Each parser built, by command (None: every command), with the COMMANDS items it was
# built from: {command: (items, parser)}
_PARSERS = {}


def build_parser(command=None):
    """The parser of every command, or with ``command`` the same parser holding that
    command's subparser alone (its usage line still names every command).

    Each is built once per process and kept while COMMANDS holds the entries it was
    built from: a replaced entry gets a fresh parser. The parser binds no command
    function; ``main`` looks it up in COMMANDS when it dispatches."""
    items = tuple(COMMANDS.items())
    built = _PARSERS.get(command)
    if built is not None and built[0] == items:
        return built[1]
    parser = argparse.ArgumentParser(prog="xmodal",
                                     description="Self-supervised cross-modal retrieval pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None
                                else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        _, help_line, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    _PARSERS[command] = items, parser
    return parser


def main(argv=None):
    global _INDEXES
    argv = sys.argv[1:] if argv is None else argv
    # the command's subparser alone serves an argv that opens with the command (--version
    # prints and exits before it is read); help or any other word first needs every command
    words = [arg for arg in argv if arg != "--version"]
    parser = build_parser(words[0] if words and words[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap to the documented 1
        raise SystemExit(EXIT_USAGE if exc.code else EXIT_OK) from None
    if args.command != "retrieve":
        _INDEXES = None   # the memo's pages go back before a command that needs more
    try:
        # overflow and NaN are reported by the checks on what they reach, never as warnings
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][0](args)
    except (XmodalError, OSError, ArithmeticError, MemoryError) as exc:
        failure = exc
    # out of the handler, dropping the traceback frees the failed command's frames and
    # what they hold: the report below needs memory, which a MemoryError's frames may hold
    failure.__traceback__ = failure.__context__ = failure.__cause__ = None
    # a bare MemoryError, such as a list's, has no message
    print(f"error: {str(failure) or f'{args.command}: out of memory'}", file=sys.stderr)
    return EXIT_USAGE if isinstance(failure, USAGE_ERRORS) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
