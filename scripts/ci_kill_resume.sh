#!/usr/bin/env bash
# CI kill/resume drill: start a journaled sweep over the golden suite,
# SIGKILL it mid-run, resume from the journal, and require the final stats
# to be byte-identical to the committed golden snapshots. Cells cut short
# by the kill re-run from cycle 0.
#
# Usage: scripts/ci_kill_resume.sh  (from the repository root)
set -u -o pipefail

JOURNAL=results/ci_kill_resume.jsonl
OUT=results/ci_kill_resume
rm -rf "$JOURNAL" "$OUT"

cargo build --release -p sac-bench --bin golden_sweep || exit 1

# Two workers with a 1s stall per cell: the 8-cell sweep needs >= 4s of
# wall clock, so a kill at ~2.5s reliably lands mid-run with some cells
# already journaled and some still outstanding.
target/release/golden_sweep --journal "$JOURNAL" --out "$OUT" \
    --stall-ms 1000 --jobs 2 &
PID=$!
sleep 2.5
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null

if [[ ! -f "$JOURNAL" ]]; then
    echo "FAIL: no journal on disk after SIGKILL" >&2
    exit 1
fi
RECORDED=$(wc -l < "$JOURNAL")
echo "journal holds $RECORDED record(s) at kill time"
if (( RECORDED >= 8 )); then
    echo "WARN: sweep finished before the kill; resume path still exercised" >&2
fi

# Resume: replay the journaled cells, run the rest.
target/release/golden_sweep --resume "$JOURNAL" --out "$OUT" --jobs 2 || {
    echo "FAIL: resumed sweep did not complete" >&2
    exit 1
}

# The resumed output must match the committed snapshots byte for byte.
# (Compare the sweep's own output set: tests/golden/ also holds fixtures
# for other suites, e.g. figcheck_golden.json.)
FAIL=0
CELLS=0
for f in "$OUT"/*.json; do
    name=$(basename "$f")
    CELLS=$((CELLS + 1))
    if ! cmp -s "tests/golden/$name" "$f"; then
        echo "FAIL: $name differs from the golden snapshot after resume" >&2
        FAIL=1
    fi
done
if (( CELLS != 8 )); then
    echo "FAIL: resumed sweep wrote $CELLS of 8 cells" >&2
    FAIL=1
fi
if (( FAIL )); then
    exit 1
fi
echo "PASS: resumed sweep reproduced all $CELLS golden snapshots byte-identically"
