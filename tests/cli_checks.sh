#!/usr/bin/env bash
# End-to-end checks of the installed `xmodal` command, run from an empty directory that
# takes every output:
#   cd "$(mktemp -d)" && bash path/to/tests/cli_checks.sh
# Each check is one line: a call of a helper below, a cmp or diff of two outputs, or a test.
set -euo pipefail
trap 'echo "cli_checks.sh line $LINENO: failed: $BASH_COMMAND" >&2' ERR

# The numerical domains, each an environment assignment, that every at_each_domain
# command runs in: its outputs must be byte-identical in all of them.
DOMAINS=(OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2)
first=${DOMAINS[0]}

# Names the failed check by the script line that called the helper, and stops.
fail() {
  echo "cli_checks.sh line ${BASH_LINENO[1]}: $*" >&2
  exit 1
}

# at_each_domain NAME CMD...: runs CMD in NAME/<domain>/, its stdout to a file there, once
# per domain. Each domain's directory must equal the first's file for file, apart from the
# manifests, whose timestamps differ; the first must hold a non-empty output besides them.
at_each_domain() {
  local name=$1 domain
  shift
  mkdir "$name"
  for domain in "${DOMAINS[@]}"; do
    mkdir "$name/$domain"
    (cd "$name/$domain" && env "$domain" "$@" > stdout) || fail "$name: exit $? at $domain"
  done
  [[ -n $(find "$name/$first" -type f ! -name 'manifest_*.json' -size +0c) ]] ||
    fail "$name: wrote and printed nothing to compare"
  for domain in "${DOMAINS[@]:1}"; do
    diff -r -x 'manifest_*.json' "$name/$first" "$name/$domain" ||
      fail "$name: $domain differs from $first"
  done
}

# fails CODE CMD...: CMD exits CODE with exactly one stderr line, and leaves none of the
# outputs its --out and --out-dir arguments name.
fails() {
  local code=$1 status=0 flag= arg
  shift
  "$@" 2> stderr.txt || status=$?
  cat stderr.txt
  [[ $status == "$code" ]] || fail "$*: exit $status, not $code"
  (( $(wc -l < stderr.txt) == 1 )) || fail "$*: stderr is not one line"
  for arg; do
    if [[ $flag == --out || $flag == --out-dir ]] && [[ -e $arg ]]; then fail "$*: left $arg"; fi
    flag=$arg
  done
}

# usage CMD...: CMD exits 1 with stderr starting with the usage text.
usage() {
  local status=0
  "$@" 2> stderr.txt || status=$?
  cat stderr.txt
  [[ $status == 1 ]] || fail "$*: exit $status, not 1"
  [[ $(head -n 1 stderr.txt) == "usage: xmodal"* ]] || fail "$*: stderr is not usage"
}

xmodal gen-data --out data/ds.txt --mkdirs --seed 1 --set num_tuples=200
xmodal train --dataset data/ds.txt --out-dir run --epochs 2 --batch-size 16
# a run checkpointed every epoch, and one resumed from its epoch 0, both end on the bytes
# of the uninterrupted run
xmodal train --dataset data/ds.txt --out-dir every --epochs 2 --batch-size 16 \
  --set checkpoint_every=1
xmodal train --dataset data/ds.txt --out-dir resumed --epochs 2 --batch-size 16 \
  --resume-from every/checkpoint_epoch0.ckpt
cmp every/checkpoint_epoch1.ckpt run/checkpoint_epoch1.ckpt
cmp resumed/checkpoint_epoch1.ckpt run/checkpoint_epoch1.ckpt
xmodal evaluate --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt --out metrics.csv
# k = 1, and a k above the 48-row test split (every row short)
xmodal evaluate --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --out metrics_k1.csv --k 1
xmodal evaluate --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --out metrics_k60.csv --k 60
# the archive and sidecar of the benchmark's generator config, whose features are one
# matrix-vector product per tuple
at_each_domain gen xmodal gen-data --out gen.txt --seed 5 --set num_tuples=2000 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=32
# training, on a model and batch wide enough for OpenBLAS to split its products across
# threads
xmodal gen-data --out wide.txt --seed 2 --set num_tuples=1000
printf 'backbone_hidden_dims = 256\nfeature_dim = 256\nembedding_dim = 256\n' > wide.cfg
at_each_domain wide xmodal train --dataset ../../wide.txt --out-dir . \
  --model-config ../../wide.cfg --epochs 2 --batch-size 128
# the same for a two-layer ReLU backbone, the activation the runs above never use
printf 'activation = relu\nbackbone_hidden_dims = 48,40\n' > relu.cfg
at_each_domain relu xmodal train --dataset ../../data/ds.txt --out-dir . \
  --model-config ../../relu.cfg --epochs 2 --batch-size 16
# a ReLU run checkpointed every epoch, and one resumed from its epoch 0, both end on the
# bytes of the uninterrupted run
xmodal train --dataset data/ds.txt --out-dir relu_every --model-config relu.cfg \
  --epochs 2 --batch-size 16 --set checkpoint_every=1
xmodal train --dataset data/ds.txt --out-dir relu_resumed --model-config relu.cfg \
  --epochs 2 --batch-size 16 --resume-from relu_every/checkpoint_epoch0.ckpt
cmp relu_every/checkpoint_epoch1.ckpt relu/$first/checkpoint_epoch1.ckpt
cmp relu_resumed/checkpoint_epoch1.ckpt relu/$first/checkpoint_epoch1.ckpt
# its ReLU layers zero by a masked store: evaluate and retrieve on that checkpoint
at_each_domain relu_evaluate xmodal evaluate --checkpoint ../../relu/$first/checkpoint_epoch1.ckpt \
  --dataset ../../data/ds.txt --direction both --out metrics.csv
at_each_domain relu_retrieve xmodal retrieve --checkpoint ../../relu/$first/checkpoint_epoch1.ckpt \
  --dataset ../../data/ds.txt --query-id 5 --src 0 --tgt 1 --k 8
# a ReLU model that maps some tuples of its first batch to exactly-zero y and z rows
# (every bias starts at 0): they train as dead rows, the run completes, and its
# checkpoint evaluates
xmodal gen-data --out dead.txt --seed 11 --set num_tuples=300 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=32
printf 'activation = relu\nbackbone_hidden_dims = 16,8\nembedding_dim = 24\nseed = 4\n' > dead.cfg
at_each_domain dead xmodal train --dataset ../../dead.txt --out-dir . \
  --model-config ../../dead.cfg --epochs 2
xmodal evaluate --checkpoint dead/$first/checkpoint_epoch1.ckpt --dataset dead.txt \
  --out dead_metrics.csv
# a float32 BLAS product picks the ranking's candidates. scan.txt has the benchmark's
# eval_scan shape: 9 query blocks against a 480-row index, a product that sgemm splits
# across threads unlike dgemm
xmodal gen-data --out scan.txt --seed 5 --set num_tuples=2000 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=32
xmodal train --dataset scan.txt --out-dir scan --epochs 2 --batch-size 32
at_each_domain evaluate xmodal evaluate --checkpoint ../../run/checkpoint_epoch1.ckpt \
  --dataset ../../data/ds.txt --direction both --out metrics.csv
at_each_domain retrieve xmodal retrieve --checkpoint ../../run/checkpoint_epoch1.ckpt \
  --dataset ../../data/ds.txt --query-id 5 --src 0 --tgt 1 --k 8
at_each_domain scan_evaluate xmodal evaluate --checkpoint ../../scan/checkpoint_epoch1.ckpt \
  --dataset ../../scan.txt --direction both --out metrics.csv
at_each_domain retrieve_10 xmodal retrieve --checkpoint ../../run/checkpoint_epoch1.ckpt \
  --dataset ../../data/ds.txt --query-id 5 --src 1 --tgt 0 --k 8
# main builds each command's parser once per process, and retrieve keeps the index it
# built for the next retrieve until another command runs: in one process, evaluate;
# retrieve 0->1, 1->0 and 0->1 again (served from the memo); evaluate again (which drops
# it); and 0->1 once more (built afresh) print and write what separate processes do
python3 - <<'EOF'
import contextlib, sys
from xmodal.cli import main
ckpt, ds = "run/checkpoint_epoch1.ckpt", "data/ds.txt"
evaluate = ["evaluate", "--checkpoint", ckpt, "--dataset", ds, "--direction", "both"]
retrieve = lambda src, tgt: ["retrieve", "--checkpoint", ckpt, "--dataset", ds,
                             "--query-id", "5", "--src", src, "--tgt", tgt, "--k", "8"]
for argv, stdout in [(evaluate + ["--out", "inproc1.csv"], "inproc_evaluate1.txt"),
                     (retrieve("0", "1"), "inproc_retrieve.txt"),
                     (retrieve("1", "0"), "inproc_retrieve_10.txt"),
                     (retrieve("0", "1"), "inproc_retrieve_hit.txt"),
                     (evaluate + ["--out", "inproc2.csv"], "inproc_evaluate2.txt"),
                     (retrieve("0", "1"), "inproc_retrieve_dropped.txt")]:
    with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
        if main(argv) != 0:
            sys.exit(1)
EOF
cmp inproc1.csv evaluate/$first/metrics.csv
cmp inproc2.csv evaluate/$first/metrics.csv
cmp inproc_evaluate1.txt evaluate/$first/stdout
cmp inproc_evaluate2.txt evaluate/$first/stdout
cmp inproc_retrieve.txt retrieve/$first/stdout
cmp inproc_retrieve_10.txt retrieve_10/$first/stdout
cmp inproc_retrieve_hit.txt retrieve/$first/stdout
cmp inproc_retrieve_dropped.txt retrieve/$first/stdout
# evaluate counts shared labels on 64-bit words: an 80-class archive, whose test part
# holds more than 64 labels, takes two words per tuple
xmodal gen-data --out wide80.txt --seed 9 --set num_tuples=600 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=80
xmodal train --dataset wide80.txt --out-dir wide80 --epochs 2 --batch-size 32
at_each_domain wide80_evaluate xmodal evaluate --checkpoint ../../wide80/checkpoint_epoch1.ckpt \
  --dataset ../../wide80.txt --direction both --out metrics.csv
# retrieve embeds its target modality in row blocks of at most 128: the 2000 rows of
# scan.txt make 16, and 129 rows make two of 64 and 65, where a plain 128-row split would
# leave a one-row block that rounds differently
xmodal gen-data --out t129.txt --seed 7 --set num_tuples=129 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=32
at_each_domain scan_retrieve xmodal retrieve --checkpoint ../../scan/checkpoint_epoch1.ckpt \
  --dataset ../../scan.txt --query-id 5 --src 0 --tgt 1 --k 8
at_each_domain t129_retrieve xmodal retrieve --checkpoint ../../run/checkpoint_epoch1.ckpt \
  --dataset ../../t129.txt --query-id 5 --src 1 --tgt 0 --k 8
# a k past int64 ranks every row, as a k of the archive's 200 rows does
xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --query-id 5 --src 0 --tgt 1 --k 200 > retrieve_k200.txt
xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --query-id 5 --src 0 --tgt 1 --k 100000000000000000000 > retrieve_k_huge.txt
cmp retrieve_k200.txt retrieve_k_huge.txt
xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --query-id 5 --src 1 --tgt 0 --k 3 > with_sidecar.txt
rm data/ds.txt.cols
xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --query-id 5 --src 1 --tgt 0 --k 3 > text_only.txt
diff with_sidecar.txt text_only.txt
cat with_sidecar.txt
# a multi-label archive (the benchmark's generator config): evaluate and retrieve read the
# same label layout from its sidecar and from its text
xmodal gen-data --out multi.txt --seed 4 --set num_tuples=300 \
  --set multi_label=true --set noise_sigma=0.5 --set num_classes=32
xmodal train --dataset multi.txt --out-dir multi --epochs 2 --batch-size 16
xmodal evaluate --checkpoint multi/checkpoint_epoch1.ckpt --dataset multi.txt \
  --direction both --out multi_cols.csv > multi_evaluate_cols.txt
xmodal retrieve --checkpoint multi/checkpoint_epoch1.ckpt --dataset multi.txt \
  --query-id 7 --src 0 --tgt 1 --k 8 > multi_retrieve_cols.txt
rm multi.txt.cols
xmodal evaluate --checkpoint multi/checkpoint_epoch1.ckpt --dataset multi.txt \
  --direction both --out multi_text.csv > multi_evaluate_text.txt
xmodal retrieve --checkpoint multi/checkpoint_epoch1.ckpt --dataset multi.txt \
  --query-id 7 --src 0 --tgt 1 --k 8 > multi_retrieve_text.txt
cmp multi_cols.csv multi_text.csv
cmp multi_evaluate_cols.txt multi_evaluate_text.txt
cmp multi_retrieve_cols.txt multi_retrieve_text.txt
xmodal gradcheck --trials 2
# a bad argument, a NaN --split fraction and a config file that is not UTF-8 each exit 1
# with one stderr line
fails 1 xmodal gradcheck --seed -1
fails 1 xmodal train --dataset data/ds.txt --out-dir nan_split --split 0.5,nan,0.5
printf 'epochs=2\n\xe9\n' > latin1.cfg
fails 1 xmodal train --dataset data/ds.txt --out-dir latin1 --train-config latin1.cfg
# a config file that starts with a UTF-8 byte-order mark reads as without it
printf '\xef\xbb\xbfepochs=2\n' > bom.cfg
xmodal train --dataset data/ds.txt --out-dir bom --train-config bom.cfg --batch-size 16
cmp bom/checkpoint_epoch1.ckpt run/checkpoint_epoch1.ckpt
# main reads sys.argv only here: help from the one command parser it builds (help before
# the command lists every command), and usage errors: an unknown command, a missing flag,
# a word past the flags
xmodal --help > help.txt
xmodal -h retrieve > help_before_command.txt
cmp help.txt help_before_command.txt
xmodal retrieve --help > retrieve_help.txt
grep -q -- --query-id retrieve_help.txt
usage xmodal nosuch
usage xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt
usage xmodal retrieve --checkpoint run/checkpoint_epoch1.ckpt --dataset data/ds.txt \
  --query-id 5 extra
# three modalities, a count train takes from the archive: 6 directions plus the average,
# byte-identical on a rerun
xmodal gen-data --out tri.txt --seed 3 --set num_tuples=60 --set num_modalities=3
for r in tri1 tri2; do
  xmodal train --dataset tri.txt --out-dir $r --epochs 2 --batch-size 8
  xmodal evaluate --checkpoint $r/checkpoint_epoch1.ckpt --dataset tri.txt \
    --direction both --out $r/metrics.csv
done
cmp tri1/checkpoint_epoch1.ckpt tri2/checkpoint_epoch1.ckpt
cmp tri1/metrics.csv tri2/metrics.csv
test "$(grep -c '^summary,' tri1/metrics.csv)" -eq 7
# and so does a three-modality run resumed from its epoch 0
xmodal train --dataset tri.txt --out-dir tri_every --epochs 2 --batch-size 8 \
  --set checkpoint_every=1
xmodal train --dataset tri.txt --out-dir tri_resumed --epochs 2 --batch-size 8 \
  --resume-from tri_every/checkpoint_epoch0.ckpt
cmp tri_every/checkpoint_epoch1.ckpt tri1/checkpoint_epoch1.ckpt
cmp tri_resumed/checkpoint_epoch1.ckpt tri1/checkpoint_epoch1.ckpt
# a three-modality ReLU run, whose stacked steps sum each modality's pair gradients
at_each_domain tri_relu xmodal train --dataset ../../tri.txt --out-dir . \
  --model-config ../../relu.cfg --epochs 2 --batch-size 8
# evaluate embeds each source modality's query rows once, for all its directions: the
# six directions, and a test part that is both query set and index
at_each_domain tri_both xmodal evaluate --checkpoint ../../tri1/checkpoint_epoch1.ckpt \
  --dataset ../../tri.txt --direction both --out metrics.csv
at_each_domain tri_test xmodal evaluate --checkpoint ../../tri1/checkpoint_epoch1.ckpt \
  --dataset ../../tri.txt --query-split test --index-split test --out metrics.csv
# a query whose only candidate is itself exits 1 with one stderr line
xmodal gen-data --out ten.txt --seed 1 --set num_tuples=10
xmodal train --dataset ten.txt --out-dir ten --epochs 1 --batch-size 4
fails 1 xmodal evaluate --checkpoint ten/checkpoint_epoch0.ckpt --dataset ten.txt \
  --split 0.8,0.1,0.1 --query-split test --index-split test --out ten.csv
# a cut checkpoint exits 2 with one stderr line and writes no metrics file
head -c 200 run/checkpoint_epoch1.ckpt > cut.ckpt
fails 2 xmodal evaluate --checkpoint cut.ckpt --dataset data/ds.txt --out cut.csv
# a training run that overflows exits 2 with one stderr line and no NumPy warning: a
# finite loss whose squared gradients overflow Adam's second moments leaves no checkpoint,
# and a learning rate that overflows the weights ends on a NaN loss; neither leaves the
# --out-dir it made
xmodal gen-data --out div.txt --seed 3 --set num_tuples=60
fails 2 xmodal train --dataset div.txt --out-dir div --epochs 2 --set tau=1e-300
fails 2 xmodal train --dataset div.txt --out-dir div --epochs 2 --set learning_rate=1e300
# an archive loaded again in one process is hashed again after its text is rewritten in
# place with the same size and its mtime restored: only the ctime, which this file system
# must move on every write, tells the digest memo
python3 - <<'EOF'
import os, time
from xmodal import data
from xmodal.cli import main
if main(["gen-data", "--out", "racy.txt", "--seed", "6", "--set", "num_tuples=60"]):
    raise SystemExit("gen-data failed")
time.sleep(2.5)   # past the window: the first load keeps its digests
first = data.load_dataset("racy.txt")
assert data._DIGESTS, "the first load kept no digest"
before, text = os.stat("racy.txt"), open("racy.txt", "rb").read()
at = next(i for i in range(text.index(b"\t", text.index(b"\t") + 1), len(text))
          if text[i] in b"12345678")   # a digit of the first feature
with open("racy.txt", "r+b") as fh:
    fh.write(text[:at] + bytes([text[at] + 1]) + text[at + 1:])
os.utime("racy.txt", ns=(before.st_atime_ns, before.st_mtime_ns))
after = os.stat("racy.txt")
assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
time.sleep(2.5)   # past the window again
second = data.load_dataset("racy.txt")
with open("racy_text.txt", "wb") as fh:   # the same text with no sidecar
    fh.write(open("racy.txt", "rb").read())
text_only = data.load_dataset("racy_text.txt")
columns = lambda ds: [ds.ids.tobytes(), ds.features.tobytes(),
                      ds.label_offsets.tobytes(), ds.label_ids.tobytes()]
assert columns(second) == columns(text_only) != columns(first)
assert second.sha256 == text_only.sha256 != first.sha256
EOF
# every output is committed by a rename: no tmp file is left behind
test -z "$(find . -name '*.tmp')"
