"""Mutation check: would a test notice any one statement of the package gone?

For each sampled site, one statement of a function body in ``src/xmodal/<module>.py``
is replaced by ``pass`` in a copy of the repository. The copy then runs the module's
own tests (``tests/test_<module>.py``) and, if they pass, the whole tier-1 suite, each
with ``-x``. A mutant that passes both survived: no test noticed the statement gone.
Sites are drawn per module from every statement inside a function (docstrings and
nested definitions excepted) by ``random.Random(f"{SEED}/{module}")``, so a run of one
module draws the sites that module draws in a run of all.

    python tests/mutate.py --out mutants.json [--modules model,tensor] [--sites 40]
                           [--module-tests-only]

The JSON record holds the seed, the sites per module, each sampled site with its
outcome ("module", "tier1": the run that failed; "timeout"; "survived") and the
survivors. The file's name keeps it out of tier-1's collection.
"""

import argparse
import ast
import json
import os
import pathlib
import random
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("data", "trainer", "retrieval", "losses", "cli", "model", "tensor")
TIMEOUT_S = 300          # per pytest run, about 6 times tier-1's: a mutant may loop
MEMORY_LIMIT = 4 << 30   # address space of each pytest run: a mutant may over-allocate
SEED = 0                 # of the site draw, written to the record


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def sites(source):
    """(function, statement) of every statement inside a function body, nested blocks
    and closures included, in source order; docstrings, ``pass`` and the definitions
    themselves excepted (a decorated one would leave its decorators behind)."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                visit(child, f"{scope}{child.name}.",
                      in_function or not isinstance(child, ast.ClassDef))
                continue
            if (in_function and isinstance(child, ast.stmt)
                    and not isinstance(child, ast.Pass) and not _is_docstring(node, child)):
                found.append((scope[:-1], child))
            visit(child, scope, in_function)

    visit(ast.parse(source), "", False)
    return found


def _is_docstring(parent, stmt):
    return (isinstance(parent, DEFINITIONS) and parent.body[0] is stmt
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def mutant(source, stmt):
    """``source`` with the text of ``stmt`` replaced by ``pass``."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    head = b"".join(lines[:stmt.lineno - 1]) + lines[stmt.lineno - 1][:stmt.col_offset]
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:] + b"".join(lines[stmt.end_lineno:])
    return (head + b"pass" + tail).decode("utf-8")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def passes(copy, args):
    """Whether pytest with ``args`` passes in ``copy``; None if it ran out of time. No
    bytecode is written: a mutant of the same size within one second of the last one
    would otherwise run the last one's cached bytecode."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *args]
    try:
        return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
                              preexec_fn=_limit_memory).returncode == 0
    except subprocess.TimeoutExpired:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--modules", default=",".join(MODULES))
    parser.add_argument("--sites", type=int, default=40)
    parser.add_argument("--module-tests-only", action="store_true")
    args = parser.parse_args(argv)
    record = {"seed": SEED, "sites_per_module": args.sites, "modules": {},
              "survivors": []}
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "out", "__pycache__", ".pytest_cache", ".hypothesis"))
        modules = args.modules.split(",")
        # a copy that fails unmutated would count every mutant as killed
        if not passes(copy, [f"tests/test_{m}.py" for m in modules]
                      if args.module_tests_only else []):
            raise SystemExit("the unmutated copy fails its tests")
        for module in modules:
            path = copy / "src" / "xmodal" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            found = sites(source)
            picked = sorted(random.Random(f"{SEED}/{module}").sample(
                range(len(found)), min(args.sites, len(found))))
            runs = [("module", [f"tests/test_{module}.py"])]
            if not args.module_tests_only:
                runs.append(("tier1", []))
            results = []
            record["modules"][module] = {"sites_total": len(found), "sampled": results}
            for i in picked:
                function, stmt = found[i]
                path.write_text(mutant(source, stmt), encoding="utf-8")
                outcome = "survived"
                for run, tests in runs:
                    ok = passes(copy, tests)
                    if not ok:
                        outcome = run if ok is False else "timeout"
                        break
                site = {"module": module, "function": function, "line": stmt.lineno,
                        "statement": ast.get_source_segment(source, stmt).splitlines()[0],
                        "outcome": outcome}
                results.append(site)
                if outcome == "survived":
                    record["survivors"].append(site)
                print(json.dumps(site), flush=True)
                # rewritten after every site, so a cut run keeps what it found
                pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
            path.write_text(source, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
