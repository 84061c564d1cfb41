#!/usr/bin/env bash
# The console-script checks: each subcommand on small simulated inputs,
# every output checked by verify, and the exit codes and error lines of
# bad input. Runs the installed crosspair command when it is on PATH, else
# the package in this checkout's src/, so it needs no install or network:
#
#   bash ci/console.sh
set -e

if ! command -v crosspair > /dev/null; then
  src=$(cd "$(dirname "$0")/../src" && pwd)
  crosspair() {
    PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python -m crosspair.cli "$@"
  }
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
crosspair simulate --scenes 6 --boxes 4 --seed 1 -o "$tmp/scenes.jsonl"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  -o "$tmp/report.jsonl"
crosspair verify "$tmp/report.jsonl.manifest.json"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  --no-sdlm --iou-match-only --beta 1e308 -o "$tmp/copied.jsonl"
crosspair verify "$tmp/copied.jsonl.manifest.json"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  --no-dlc -o "$tmp/fresh.jsonl"
crosspair verify "$tmp/fresh.jsonl.manifest.json"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 3 --k4 3 \
  --skip-stage1 -o "$tmp/skip1.jsonl"
crosspair verify "$tmp/skip1.jsonl.manifest.json"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 3 --k4 3 \
  --no-plf --batch-size 7 -o "$tmp/noplf.jsonl"
crosspair verify "$tmp/noplf.jsonl.manifest.json"
crosspair pipeline --input "$tmp/scenes.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  --iou-match-only --dlc-improve-only -o "$tmp/improve.jsonl"
crosspair verify "$tmp/improve.jsonl.manifest.json"
crosspair match --input "$tmp/scenes.jsonl" -o "$tmp/pairs.jsonl"
crosspair verify "$tmp/pairs.jsonl.manifest.json"
sed 's/$/\r/' "$tmp/scenes.jsonl" > "$tmp/scenes_crlf.jsonl"
tr '\n' '\r' < "$tmp/scenes.jsonl" > "$tmp/scenes_cr.jsonl"
for ending in crlf cr; do
  crosspair match --input "$tmp/scenes_$ending.jsonl" -o "$tmp/pairs_$ending.jsonl"
  cmp "$tmp/pairs.jsonl" "$tmp/pairs_$ending.jsonl"
done
# crowded scenes: load chunks close at the box budget, not at 64 records
crosspair simulate --scenes 40 --boxes 32 --spurious 1.0 --canvas 1024 1024 \
  --seed 2 -o "$tmp/crowded.jsonl"
crosspair match --input "$tmp/crowded.jsonl" -o "$tmp/crowded.pairs.jsonl"
crosspair verify "$tmp/crowded.pairs.jsonl.manifest.json"
crosspair pipeline --input "$tmp/crowded.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  --iou-match-only --dlc-improve-only -o "$tmp/crowded.improve.jsonl"
crosspair verify "$tmp/crowded.improve.jsonl.manifest.json"
crosspair filter --input "$tmp/crowded.jsonl" -o "$tmp/crowded.kept.jsonl"
crosspair verify "$tmp/crowded.kept.jsonl.manifest.json"
sed 's/$/\r/' "$tmp/crowded.jsonl" > "$tmp/crowded_crlf.jsonl"
crosspair match --input "$tmp/crowded_crlf.jsonl" -o "$tmp/crowded_crlf.pairs.jsonl"
cmp "$tmp/crowded.pairs.jsonl" "$tmp/crowded_crlf.pairs.jsonl"
crosspair match --input "$tmp/scenes.jsonl" --batch-size 5 -o "$tmp/pairs5.jsonl"
crosspair verify "$tmp/pairs5.jsonl.manifest.json"
crosspair filter --input "$tmp/scenes.jsonl" -o "$tmp/kept.jsonl"
crosspair verify "$tmp/kept.jsonl.manifest.json"
crosspair filter --input "$tmp/scenes.jsonl" --per-class -o "$tmp/kept_pc.jsonl"
crosspair verify "$tmp/kept_pc.jsonl.manifest.json"
crosspair match --input "$tmp/scenes.jsonl" --no-plf --iou-match-only -o "$tmp/pairs_raw.jsonl"
crosspair verify "$tmp/pairs_raw.jsonl.manifest.json"
crosspair match --input "$tmp/scenes.jsonl" --iou-match-only --beta 1.5 -o "$tmp/pairs_iou.jsonl"
crosspair verify "$tmp/pairs_iou.jsonl.manifest.json"
crosspair match --input "$tmp/scenes.jsonl" --beta 1e300 -o "$tmp/pairs_wide.jsonl"
crosspair verify "$tmp/pairs_wide.jsonl.manifest.json"
crosspair sweep-shift --scenes 3 --boxes 3 --min -3 --max 3 --step 3 -o "$tmp/sweep.csv"
crosspair verify "$tmp/sweep.csv.manifest.json"
crosspair sweep-shift --beta 1.5 --jitter 0.5 --scenes 4 --boxes 5 --min -6 --max 6 --step 6 -o "$tmp/sweep_wide.csv"
crosspair verify "$tmp/sweep_wide.csv.manifest.json"
crosspair simulate --scenes 3 --boxes 0 -o "$tmp/empty.jsonl"
crosspair filter --input "$tmp/empty.jsonl" -o "$tmp/empty.kept.jsonl"
python -c 'import json, sys; [json.loads(line, parse_constant=lambda c: sys.exit(f"not JSON: {c}")) for line in open(sys.argv[1])]' "$tmp/empty.kept.jsonl"
echo '[]' > "$tmp/list.manifest.json"
rc=0; crosspair verify "$tmp/list.manifest.json" || rc=$?
test "$rc" -eq 2 || { echo "list manifest exited $rc, want 2"; exit 1; }
rc=0; crosspair simulate --scenes -1 -o "$tmp/bad.jsonl" || rc=$?
test "$rc" -eq 1 || { echo "bad flag exited $rc, want 1"; exit 1; }
rc=0; crosspair match --input "$tmp/missing.jsonl" -o "$tmp/pairs.jsonl" || rc=$?
test "$rc" -eq 2 || { echo "missing input exited $rc, want 2"; exit 1; }
head -n 1 "$tmp/scenes.jsonl" > "$tmp/badbyte.jsonl"
printf '\377\n' >> "$tmp/badbyte.jsonl"
rc=0; crosspair match --input "$tmp/badbyte.jsonl" -o "$tmp/badbyte.out.jsonl" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "bad byte exited $rc, want 2"; exit 1; }
grep -q ':2:' "$tmp/err" || { echo "bad byte error names no line: $(cat "$tmp/err")"; exit 1; }
head -n 1 "$tmp/scenes.jsonl" > "$tmp/deep.jsonl"
python -c 'print("[" * 100000 + "]" * 100000)' >> "$tmp/deep.jsonl"
rc=0; crosspair match --input "$tmp/deep.jsonl" -o "$tmp/deep.out.jsonl" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "nested line exited $rc, want 2"; exit 1; }
grep -q ':2:' "$tmp/err" || { echo "nested line error names no line: $(cat "$tmp/err")"; exit 1; }
printf '{"subcommand": "filter",\n "config": ' > "$tmp/deep.manifest.json"
python -c 'print("[" * 100000 + "]" * 100000 + "}")' >> "$tmp/deep.manifest.json"
rc=0; crosspair verify "$tmp/deep.manifest.json" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "nested manifest exited $rc, want 2"; exit 1; }
grep -q ':2:' "$tmp/err" || { echo "nested manifest error names no line: $(cat "$tmp/err")"; exit 1; }
head -n 1 "$tmp/scenes.jsonl" | python -c 'import json, sys; r = json.load(sys.stdin); r["rgb_obs"][0]["corr_id"] = [r["rgb_obs"][0]["corr_id"]]; print(json.dumps(r))' > "$tmp/badcorr.jsonl"
rc=0; crosspair pipeline --input "$tmp/badcorr.jsonl" -o "$tmp/badcorr.out.jsonl" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "list corr_id exited $rc, want 2"; exit 1; }
grep -q ':1:' "$tmp/err" || { echo "list corr_id error names no line: $(cat "$tmp/err")"; exit 1; }
head -n 1 "$tmp/scenes.jsonl" | python -c 'import json, sys; r = json.load(sys.stdin); r["rgb_obs"][0]["class_probs"] = [repr(p) for p in r["rgb_obs"][0]["class_probs"]]; print(json.dumps(r))' > "$tmp/strprobs.jsonl"
rc=0; crosspair match --input "$tmp/strprobs.jsonl" -o "$tmp/strprobs.out.jsonl" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "string class_probs exited $rc, want 2"; exit 1; }
grep -q ':1:' "$tmp/err" || { echo "string class_probs error names no line: $(cat "$tmp/err")"; exit 1; }
