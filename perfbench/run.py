"""Benchmark of the xmodal command line, one workload per run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is driven only through ``xmodal.cli.main([...])``, called
in-process, one command at a time (a closed loop with one caller). Set-up is
``import xmodal.cli`` plus ``xmodal gen-data`` of the workload's archive,
repeated a few times. The measured part is whole rounds of ``xmodal train``,
``xmodal evaluate --direction both`` and L x ``xmodal retrieve``, repeated
until ``--seconds`` have passed. Independent oracles then check the outputs.

With ``--trace 0`` the last stdout line carries every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, taken from spans recorded
around the program's functions (see tracing.py). See README.md for the
workloads, the metrics and how their bounds were set.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fixed before NumPy loads: single-threaded BLAS and a fixed hash seed.
STEADY_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The non-saturating synthetic config: quality regressions show on every workload.
SYNTH_SETS = ["multi_label=true", "noise_sigma=0.5", "num_classes=32"]
SPLIT = "0.52,0.24,0.24"
K = 8
# The scale of reported times: Reference.measure's median when this constant was fixed.
REF_S = 0.0275


@dataclass(frozen=True)
class Workload:
    num_tuples: int   # archive size
    epochs: int       # epochs of each `xmodal train`
    lookups: int      # L: `xmodal retrieve` commands per round
    setups: int       # set-up repetitions per run; setup_s is their median


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train_hard": Workload(num_tuples=1000, epochs=40, lookups=4, setups=7),
    "eval_scan": Workload(num_tuples=2000, epochs=2, lookups=4, setups=7),
    "lookup": Workload(num_tuples=1200, epochs=3, lookups=12, setups=11),
}
# --toy shrinks every workload for the smoke test; the figures mean nothing.
TOY = dict(num_tuples=160, epochs=3, lookups=2, setups=1)
WARMUP = Workload(num_tuples=80, epochs=1, lookups=1, setups=1)


def median(values):
    return statistics.median(values)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def peak_rss_mb():
    """High-water resident set size of this process, in MB (10^6 bytes)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def git_revision():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older NumPy has no dict form; the version is informative only
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "nproc": os.cpu_count(), "git_revision": git_revision()}


class Reference:
    """A fixed kernel, timed between commands, that gauges the machine's speed.

    On a shared machine the same code runs up to 1.6x faster or slower from one
    second to the next. Every end-to-end time is scaled by REF_S over the median
    of the two kernel times before its command and the two after it (per-layer
    times by REF_S over the kernel's median in the run), so it reads as the
    time on a machine that runs the kernel in REF_S. The kernel mixes what
    xmodal spends its time on: sorting keyed tuples, float text formatting and
    parsing, small matmuls.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.m = rng.normal(size=(32, 64))
        self.w = rng.normal(size=(64, 64)) / 8
        self.values = rng.normal(size=1000).tolist() * 12
        self.samples = []

    def measure(self):
        """Time the kernel once, after a full collection and with the collector off, so
        the heap the program left behind does not enter the kernel's time."""
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            rows = sorted(((v, i) for i, v in enumerate(self.values)),
                          key=lambda r: (-r[0], r[1]))
            text = ",".join(f"{v:.17g}" for v, _ in rows[:4000])
            [float(x) for x in text.split(",")]
            h = self.m
            for _ in range(300):
                h = self.np.tanh(h @ self.w) + self.m
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def speed(self):
        """REF_S over the kernel's median: > 1 when the machine ran faster than the reference."""
        return REF_S / median(self.samples)


def normalise(metrics, speed):
    """Scale the times among per-layer metrics by `speed`; counts and bytes stay."""
    return {name: (value * speed if unit in ("s", "ms", "us") else value, unit)
            for name, (value, unit) in metrics.items()}


def fresh_cli():
    """Import xmodal.cli afresh (NumPy stays loaded); returns (module, seconds)."""
    for name in [n for n in sys.modules if n == "xmodal" or n.startswith("xmodal.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("xmodal.cli")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported xmodal from {cli.__file__}, not from {SRC}")
    return cli, elapsed


class Run:
    """One workload run: its files, its lookup queries and its operation counts."""

    def __init__(self, workload, seed, work_dir, reference):
        self.w, self.seed, self.reference = workload, seed, reference
        os.makedirs(work_dir, exist_ok=True)
        self.archive = os.path.join(work_dir, "archive.txt")
        self.run_dir = os.path.join(work_dir, "run")
        self.ckpt = os.path.join(self.run_dir, f"checkpoint_epoch{workload.epochs - 1}.ckpt")
        self.metrics_csv = os.path.join(work_dir, "metrics.csv")
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.log = []     # per command: [kind, reference kernel seconds, wall seconds]
        import numpy as np
        rng = np.random.default_rng(seed)
        ids = rng.choice(workload.num_tuples, size=workload.lookups,
                         replace=workload.lookups > workload.num_tuples)
        self.queries = [(int(q), i % 2, 1 - i % 2) for i, q in enumerate(ids)]

    def command(self, cli, kind, argv):
        """Run one `xmodal` command; returns (its index in self.log, stdout text or None
        on failure)."""
        self.reference.measure()
        gc.collect()
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.open(f"cli.{kind}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([kind, *argv])
        except (Exception, SystemExit):  # an escaped exception is a failed command
            rc = "exception"
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        self.log.append([kind, self.reference.samples[-1], elapsed])
        if rc != 0:
            self.failed += 1
            print(f"FAILED: xmodal {kind} {' '.join(argv)} -> {rc}", file=sys.stderr)
            return len(self.log) - 1, None
        return len(self.log) - 1, out.getvalue()

    def factors(self):
        """Per command in self.log: REF_S over the median of the two kernel times before it
        and the two after it (those of the next commands, and the closing one after the
        last, which must be the reference's latest sample)."""
        kernels = [k for _, k, _ in self.log] + [self.reference.samples[-1]]
        return [REF_S / median(kernels[max(0, i - 1):i + 3]) for i in range(len(self.log))]

    def gen_data(self, cli):
        argv = ["--out", self.archive, "--seed", str(self.seed)]
        for item in [f"num_tuples={self.w.num_tuples}", *SYNTH_SETS]:
            argv += ["--set", item]
        return self.command(cli, "gen-data", argv)

    def round(self, cli):
        """train, evaluate --direction both, then L x retrieve; returns log indices and
        stdout."""
        common = ["--split", SPLIT, "--split-seed", str(self.seed)]
        train = self.command(cli, "train", [
            "--dataset", self.archive, "--out-dir", self.run_dir, "--epochs", str(self.w.epochs),
            "--batch-size", "32", "--seed", str(self.seed), *common])
        evaluate = self.command(cli, "evaluate", [
            "--checkpoint", self.ckpt, "--dataset", self.archive, "--out", self.metrics_csv,
            "--direction", "both", "--k", str(K), *common])
        lookups = [self.command(cli, "retrieve", [
            "--checkpoint", self.ckpt, "--dataset", self.archive, "--query-id", str(q),
            "--src", str(src), "--tgt", str(tgt), "--k", str(K)]) for q, src, tgt in self.queries]
        return {"train": train[0], "evaluate": evaluate[0],
                "lookups": [i for i, _ in lookups], "retrieve_out": [o for _, o in lookups],
                "ok": train[1] is not None and evaluate[1] is not None}

    def outputs_digest(self, round_result):
        paths = [self.ckpt, os.path.join(self.run_dir, "train_report.csv"), self.metrics_csv]
        digest = [sha256(p) if os.path.exists(p) else None for p in paths]
        return digest + list(round_result["retrieve_out"])


def warm_up(cli, work_dir, reference):
    """A toy-size pass over every command, so lazy imports and caches fill before timing."""
    run = Run(WARMUP, 0, work_dir, reference)
    run.gen_data(cli)
    run.round(cli)
    return run.attempted, run.failed


def timed_metrics(run, rounds, setups, factor, n_train):
    """The end-to-end metrics that are times or rates, {name: (value, unit)}, from the
    command times in run.log, each multiplied by its factor."""
    def t(i):
        return run.log[i][2] * factor[i]

    w = run.w
    return {
        "setup_s": (median([(t_import + run.log[g][2]) * factor[g] for t_import, g in setups]),
                    "s"),
        "pipeline_s": (median([t(r["train"]) + t(r["evaluate"]) for r in rounds]), "s"),
        "train_tuples_per_s": (median([n_train * w.epochs / t(r["train"]) for r in rounds]),
                               "tuples/s"),
        "eval_queries_per_s": (median([2 * n_train / t(r["evaluate"]) for r in rounds]),
                               "queries/s"),
        "lookup_ms_p50": (1e3 * median([t(i) for r in rounds for i in r["lookups"]]), "ms"),
    }


def run_workload(workload, seed, seconds, trace, work_dir):
    """Returns (result for the last stdout line, run record: rounds, reference, raw metrics
    and, when traced, the spans)."""
    import oracles
    import tracing

    cli, _ = fresh_cli()
    reference = Reference()
    warm_attempted, warm_failed = warm_up(cli, os.path.join(work_dir, "warmup"), reference)

    run = Run(workload, seed, work_dir, reference)
    run.attempted, run.failed = warm_attempted, warm_failed
    tracer = tracing.Tracer() if trace else None
    missing = set()   # layer functions tracing could not find

    @contextlib.contextmanager
    def traced(on):
        patches = None
        if on:
            patches, names = tracing.install(tracer)
            missing.update(names)
            run.tracer = tracer
        try:
            yield
        finally:
            run.tracer = None
            if patches:
                patches.undo()

    setups, import_s, archive_digests = [], [], []
    for _ in range(workload.setups):
        cli, t_import = fresh_cli()
        with traced(bool(tracer)):
            gen, _ = run.gen_data(cli)
        import_s.append(t_import)
        setups.append((t_import, gen))
        archive_digests.append(sha256(run.archive) if os.path.exists(run.archive) else None)

    rounds = []
    start = time.perf_counter()
    min_rounds = 2 if tracer else 1  # trace mode needs one plain and one traced round
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        on = bool(tracer) and len(rounds) % 2 == 1  # trace mode alternates: plain, traced
        with traced(on):
            result = run.round(cli)
        result["traced"] = on
        result["digest"] = run.outputs_digest(result)
        rounds.append(result)
    rss = peak_rss_mb()
    reference.measure()  # the closing kernel time, after the last command

    # Checks, outside the timed region; each failure is a failed operation.
    checks = oracles.check_run(run, rounds, archive_digests, SPLIT, K)
    checks += [(f"trace.function[{name}]", False, "not found") for name in sorted(missing)]
    if trace:
        layers, empty = tracing.layer_metrics(tracer, import_s, run)
        checks += [(f"trace.metric[{name}]", False, "no samples") for name in empty]
    run.attempted += len(checks)
    bad = [(name, detail) for name, ok, detail in checks if not ok]
    run.failed += len(bad)
    for name, detail in bad:
        print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)

    n_train = len(oracles.split_indices(workload.num_tuples, SPLIT, seed)[0])
    if trace:
        def pipeline_s(traced):
            rs = [r for r in rounds if r["traced"] == traced]
            return timed_metrics(run, rs, setups, [1.0] * len(run.log), n_train)["pipeline_s"][0]
        raw_metrics = {**layers, "trace.overhead_s": (pipeline_s(True) - pipeline_s(False), "s")}
        metrics = normalise(raw_metrics, reference.speed())
        record = {"trace": tracer.record()}
    else:
        f1, ndcg = oracles.summary_average(run.metrics_csv)
        untimed = {"f1_at_8": (f1, "1"), "ndcg_at_8": (ndcg, "1"), "peak_rss_mb": (rss, "MB")}
        raw_metrics = {**timed_metrics(run, rounds, setups, [1.0] * len(run.log), n_train),
                       **untimed}
        metrics = {**timed_metrics(run, rounds, setups, run.factors(), n_train), **untimed}
        record = {}
    record.update(rounds=len(rounds), reference_s=median(reference.samples),
                  speed=reference.speed(), commands=run.log,
                  raw_metrics={k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()})
    result = {"correct": not bad, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xmodal", "cli.py")):
        print(f"error: no xmodal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = replace(workload, **TOY)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, record = run_workload(workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = environment()
    spans = record.pop("trace", None)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "env": env, **record}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({**info, **spans}, fh)
    print("run " + json.dumps({k: v for k, v in info.items() if k != "commands"},
                              sort_keys=True))
    print(json.dumps(result))
    return 0


def _reexec_with_steady_env():
    """Restart once under STEADY_ENV: the hash seed only takes effect at interpreter start."""
    if any(os.environ.get(k) != v for k, v in STEADY_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **STEADY_ENV})


if __name__ == "__main__":
    _reexec_with_steady_env()
    sys.exit(main())
