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
# an artifact deleted after the run: verify exits 2 and names it. A run of
# its own, since later steps cmp pairs.jsonl
crosspair match --input "$tmp/scenes.jsonl" -o "$tmp/gone.jsonl"
rm "$tmp/gone.jsonl.stats.json"
rc=0
crosspair verify "$tmp/gone.jsonl.manifest.json" > "$tmp/verify_out" || rc=$?
test "$rc" -eq 2 || { echo "verify of a deleted artifact exited $rc, want 2"; exit 1; }
grep -qx "verify: gone.jsonl.stats.json: MISMATCH" "$tmp/verify_out" || { echo "verify did not name the deleted artifact: $(cat "$tmp/verify_out")"; exit 1; }
# an input moved away after the run: verify exits 2 with one line of its
# own, before any rerun
cp "$tmp/scenes.jsonl" "$tmp/moved.jsonl"
crosspair match --input "$tmp/moved.jsonl" -o "$tmp/moved.pairs.jsonl"
mv "$tmp/moved.jsonl" "$tmp/moved.away.jsonl"
rc=0
crosspair verify "$tmp/moved.pairs.jsonl.manifest.json" > "$tmp/verify_out" 2>&1 || rc=$?
test "$rc" -eq 2 || { echo "verify of a moved input exited $rc, want 2"; exit 1; }
test "$(cat "$tmp/verify_out")" = "verify: input missing" || { echo "verify of a moved input printed: $(cat "$tmp/verify_out")"; exit 1; }
# stdout closed by its reader: exit 141 (128 + SIGPIPE), not the data error
# 2, with every output and the manifest written. The reader closes its end
# of the pipe first, then lets match start through a fifo.
mkfifo "$tmp/closed"
{ read -r _ < "$tmp/closed"; rc=0
  crosspair match --input "$tmp/scenes.jsonl" -o "$tmp/pairs_closed.jsonl" \
    2> "$tmp/err" || rc=$?
  echo "$rc" > "$tmp/rc"; } | { exec 0<&-; echo > "$tmp/closed"; }
test "$(cat "$tmp/rc")" -eq 141 || { echo "closed stdout exited $(cat "$tmp/rc"), want 141: $(cat "$tmp/err")"; exit 1; }
test ! -s "$tmp/err" || { echo "closed stdout wrote to stderr: $(cat "$tmp/err")"; exit 1; }
crosspair verify "$tmp/pairs_closed.jsonl.manifest.json"
cmp "$tmp/pairs.jsonl" "$tmp/pairs_closed.jsonl"
sed 's/$/\r/' "$tmp/scenes.jsonl" > "$tmp/scenes_crlf.jsonl"
tr '\n' '\r' < "$tmp/scenes.jsonl" > "$tmp/scenes_cr.jsonl"
for ending in crlf cr; do
  crosspair match --input "$tmp/scenes_$ending.jsonl" -o "$tmp/pairs_$ending.jsonl"
  cmp "$tmp/pairs.jsonl" "$tmp/pairs_$ending.jsonl"
done
# a 21-digit integer in every record sends every line to json.loads, not
# orjson: the same pairs
python -c 'import json, sys; [print(json.dumps({**json.loads(line), "tag": 123456789012345678901})) for line in open(sys.argv[1])]' "$tmp/scenes.jsonl" > "$tmp/tagged.jsonl"
crosspair match --input "$tmp/tagged.jsonl" -o "$tmp/pairs_tagged.jsonl"
cmp "$tmp/pairs.jsonl" "$tmp/pairs_tagged.jsonl"
crosspair verify "$tmp/pairs_tagged.jsonl.manifest.json"
# crowded scenes: load chunks close at the box budget, not at 64 records
crosspair simulate --scenes 40 --boxes 32 --spurious 1.0 --canvas 1024 1024 \
  --seed 2 -o "$tmp/crowded.jsonl"
crosspair match --input "$tmp/crowded.jsonl" -o "$tmp/crowded.pairs.jsonl"
crosspair verify "$tmp/crowded.pairs.jsonl.manifest.json"
crosspair pipeline --input "$tmp/crowded.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  --iou-match-only --dlc-improve-only -o "$tmp/crowded.improve.jsonl"
crosspair verify "$tmp/crowded.improve.jsonl.manifest.json"
# scenes of 3 and of 5 classes in turn, ids renumbered, and one scene
# without rgb_obs: the noise rows hold one array per class count
crosspair simulate --scenes 4 --boxes 4 --classes 3 --seed 3 -o "$tmp/c3.jsonl"
crosspair simulate --scenes 4 --boxes 4 --classes 5 --seed 4 -o "$tmp/c5.jsonl"
python -c 'import json, sys; a, b = ([json.loads(line) for line in open(p)] for p in sys.argv[1:]); recs = [r for pair in zip(a, b) for r in pair]; [r.update(scene_id=i) for i, r in enumerate(recs)]; recs[2]["rgb_obs"] = []; print("\n".join(map(json.dumps, recs)))' "$tmp/c3.jsonl" "$tmp/c5.jsonl" > "$tmp/mixed.jsonl"
crosspair pipeline --input "$tmp/mixed.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  -o "$tmp/mixed.report.jsonl"
crosspair verify "$tmp/mixed.report.jsonl.manifest.json"
# per-class thresholds over the classes of 3- and 5-class scenes in one
# batch, and the scene without rgb_obs as an empty pool of its batch
crosspair filter --input "$tmp/mixed.jsonl" --per-class --batch-size 3 \
  -o "$tmp/mixed.kept.jsonl"
crosspair verify "$tmp/mixed.kept.jsonl.manifest.json"
crosspair match --input "$tmp/mixed.jsonl" --batch-size 3 -o "$tmp/mixed.pairs.jsonl"
crosspair verify "$tmp/mixed.pairs.jsonl.manifest.json"
crosspair filter --input "$tmp/crowded.jsonl" -o "$tmp/crowded.kept.jsonl"
crosspair verify "$tmp/crowded.kept.jsonl.manifest.json"
sed 's/$/\r/' "$tmp/crowded.jsonl" > "$tmp/crowded_crlf.jsonl"
crosspair match --input "$tmp/crowded_crlf.jsonl" -o "$tmp/crowded_crlf.pairs.jsonl"
cmp "$tmp/crowded.pairs.jsonl" "$tmp/crowded_crlf.pairs.jsonl"
# thetas outside [-pi/2, pi/2) and at its ends: each box's theta set in
# turn to the float just below -pi/2, to pi/2 and to theta + 3pi
python -c 'import json, math, sys; edges = (lambda t: math.nextafter(-math.pi / 2, -4), lambda t: math.pi / 2, lambda t: t + 3 * math.pi); recs = [json.loads(line) for line in open(sys.argv[1])]; boxes = [b for r in recs for b in r["ir_gt"] + r["rgb_obs"]]; [b.update(theta=edges[i % 3](b["theta"])) for i, b in enumerate(boxes)]; print("\n".join(map(json.dumps, recs)))' "$tmp/scenes.jsonl" > "$tmp/edge.jsonl"
crosspair match --input "$tmp/edge.jsonl" -o "$tmp/edge.pairs.jsonl"
crosspair verify "$tmp/edge.pairs.jsonl.manifest.json"
crosspair filter --input "$tmp/edge.jsonl" -o "$tmp/edge.kept.jsonl"
crosspair verify "$tmp/edge.kept.jsonl.manifest.json"
crosspair pipeline --input "$tmp/edge.jsonl" --k1 1 --k2 1 --k3 2 --k4 2 \
  -o "$tmp/edge.report.jsonl"
crosspair verify "$tmp/edge.report.jsonl.manifest.json"
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
{ head -n 1 "$tmp/scenes.jsonl"; sed -n 2p "$tmp/scenes.jsonl" | python -c 'import json, sys; r = json.load(sys.stdin); r["ir_gt"][0]["cx"] = float("nan"); print(json.dumps(r))'; } > "$tmp/nan.jsonl"
rc=0; crosspair match --input "$tmp/nan.jsonl" -o "$tmp/nan.out.jsonl" 2> "$tmp/err" || rc=$?
test "$rc" -eq 2 || { echo "NaN cx exited $rc, want 2"; exit 1; }
grep -qF ":2: field 'ir_gt[0].cx'" "$tmp/err" || { echo "NaN cx error names no line and field: $(cat "$tmp/err")"; exit 1; }
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
