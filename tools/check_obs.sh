#!/usr/bin/env bash
# End-to-end invariance checks of the observability surface (`--obs-out DIR`
# bundles and `tgcover report`), run by CI's observability job:
#
#   tools/check_obs.sh path/to/tgcover [workdir]
#
# For schedule, distributed --async --loss 0.1, and repair, and for every
# collector each command supports: the mask and cost.jsonl are byte-identical
# with the collector armed vs unarmed and at --threads 1 vs 2, so are the
# trace, nodes and quality streams at --threads 1 vs 2, and the 2-thread
# bundle passes tools/bench_gate.py against the serial one. The
# diagnostics knobs (--log-level debug --flight 64 --log-out) change neither
# file either. Then:
# report renders byte-identically twice and keeps its section headings, the
# node ledger balances, a lossy async run holds Proposition 1's bound with
# positive margin, the gate refuses (exit 2) runs that differ in seed, the
# fleet page is identical across 1 vs 2 workers, and fleet --resume refuses
# grid and arming mismatches. Exits non-zero on the first failed check.
set -euo pipefail

TGC=$(realpath "$1")
GATE=$(realpath "$(dirname "$0")/bench_gate.py")
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
cd "$WORK"
export TGC_RUN_TIMESTAMP="1970-01-01T00:00:00Z"

step() { echo "== $*"; }
heading() { grep -q "$2" "$1" || { echo "missing section '$2' in $1" >&2; exit 1; }; }

# Small enough that a lossy async trace bundle stays in the tens of MB.
"$TGC" generate --nodes 60 --degree 10 --seed 7 --out net.tgc
"$TGC" schedule --in net.tgc --tau 4 --seed 3 --out base.tgc
# Three awake nodes crash; repair wakes sleepers around them.
python3 - <<'EOF'
lines = open("base.tgc").read().split("\n")
awake = [int(l.split()[1]) for l in lines if l.startswith("set ")]
crash = awake[len(awake) // 2:len(awake) // 2 + 3]
with open("failed.tgc", "w") as f:
    f.write("tgcover-mask 1\nnodes 60\n" + "".join(f"set {v}\n" for v in crash))
EOF

declare -A ARGS COLLECTORS
ARGS[schedule]="schedule --in net.tgc --tau 4 --seed 3"
ARGS[distributed]="distributed --in net.tgc --tau 4 --seed 3 --async --loss 0.1"
ARGS[repair]="repair --in net.tgc --tau 4 --schedule base.tgc --failed failed.tgc"
COLLECTORS[schedule]="profile quality"
COLLECTORS[distributed]="trace profile nodes quality"
COLLECTORS[repair]="profile nodes quality"

for cmd in schedule distributed repair; do
  step "$cmd: collectors, threads and diagnostics perturb nothing"
  # repair exits 1 when the certificate cannot be restored; the artifacts
  # are what is compared here, not the verdict.
  run() { "$TGC" ${ARGS[$cmd]} "$@" || [ "$cmd" = repair ]; }
  run --threads 1 --out "$cmd-plain.tgc" --obs-out "$cmd-plain"
  for c in ${COLLECTORS[$cmd]}; do
    for t in 1 2; do
      run --threads "$t" --out "$cmd-$c-$t.tgc" --obs-out "$cmd-$c-$t" --obs "$c"
      cmp "$cmd-plain.tgc" "$cmd-$c-$t.tgc"
      cmp "$cmd-plain/cost.jsonl" "$cmd-$c-$t/cost.jsonl"
    done
    if [ "$c" != profile ]; then  # the profile holds wall-clock times
      cmp "$cmd-$c-1/$c.jsonl" "$cmd-$c-2/$c.jsonl"
    fi
    python3 "$GATE" --baseline "$cmd-$c-1" --fresh "$cmd-$c-2"
  done
  run --threads 1 --out "$cmd-diag.tgc" --obs-out "$cmd-diag" \
    --log-level debug --flight 64 --log-out "$cmd-diag.log"
  cmp "$cmd-plain.tgc" "$cmd-diag.tgc"
  cmp "$cmd-plain/cost.jsonl" "$cmd-diag/cost.jsonl"
  all=$(echo ${COLLECTORS[$cmd]} | tr ' ' ,)
  run --threads 2 --out "$cmd-all.tgc" --obs-out "$cmd-all" --obs "$all"
  cmp "$cmd-plain.tgc" "$cmd-all.tgc"
  cmp "$cmd-plain/cost.jsonl" "$cmd-all/cost.jsonl"

  step "$cmd: report is byte-deterministic"
  "$TGC" report "$cmd-all" --out "$cmd.html" | tee "$cmd.txt"
  "$TGC" report "$cmd-all" --out "$cmd-rerun.html" > /dev/null
  cmp "$cmd.html" "$cmd-rerun.html"
  grep -q "view B" "$cmd.txt"
done

step "report sections"
heading distributed.html "Causal critical path"
heading distributed.html "Phase breakdown"
heading distributed.html "Parallel efficiency"
heading distributed.html "Spatial hotspots"
heading distributed.html "Convergence"
heading distributed.html "Holes vs bound"
heading distributed.html "k-coverage"
grep -q "trace OK" distributed.txt
for chrome in trace profile; do
  python3 -c "import json, sys; json.load(open(sys.argv[1]))" \
    "distributed-all/$chrome.chrome.json"
done

step "node ledger balances"
python3 - <<'EOF'
import json
summary, sent, lost, retrans = None, 0, 0, 0
for line in open("distributed-all/nodes.jsonl"):
    obj = json.loads(line)
    if obj["type"] == "telemetry_summary":
        summary = obj
    elif obj["type"] == "node_summary":
        sent += obj["sent"]; lost += obj["lost"]; retrans += obj["retransmits"]
assert summary is not None
assert sent == summary["sent"], (sent, summary["sent"])
assert lost == summary["lost"] > 0 and retrans == summary["retransmits"] > 0
assert summary["sent"] == (summary["received"] + summary["lost"]
                           + summary["dropped"] + summary["undelivered"])
print(f"ledger ok: {sent} sent")
EOF

step "lossy async run holds the Proposition 1 bound"
# rs = 0.7 puts gamma in the (2 sin(pi/4), 2] band where the bound is the
# finite (tau-2)*Rc = 2 rather than the blanket 0.
"$TGC" generate --nodes 200 --degree 28 --seed 3 --out net-dense.tgc
"$TGC" distributed --in net-dense.tgc --tau 4 --async --loss 0.1 --rs 0.7 \
  --out lossy.tgc --obs-out lossy --obs quality
python3 - <<'EOF'
import json
s = [json.loads(l) for l in open("lossy/quality.jsonl")]
s = [o for o in s if o["type"] == "quality_summary"][-1]
assert s["violations"] == 0 and s["bound_margin"] > 0, s
print(f"bound ok: margin {s['bound_margin']}")
EOF

step "gate: refuses runs that differ in seed"
"$TGC" schedule --in net.tgc --tau 4 --seed 5 --out s5.tgc --obs-out seed5
rc=0
python3 "$GATE" --baseline schedule-plain --fresh seed5 2> seed5.err || rc=$?
cat seed5.err
if [ "$rc" -ne 2 ] || ! grep -q "'seed'" seed5.err; then
  echo "bench_gate did not refuse runs with differing seeds (exit $rc)" >&2
  exit 1
fi

step "fleet: page identical across worker counts; resume refusals"
GRID=(--models udg --nodes 60,80 --degrees 10 --taus 3,4 --losses 0,0.1)
"$TGC" fleet "${GRID[@]}" --seeds 1,2 --threads 2 --no-progress \
  --out fleet.jsonl \
  --obs-out fleet-obs --obs nodes,quality
"$TGC" fleet "${GRID[@]}" --seeds 1,2 --threads 1 --no-progress \
  --out fleet-serial.jsonl \
  --obs-out fleet-serial-obs --obs nodes,quality
python3 "$GATE" --baseline fleet.jsonl --fresh fleet-serial.jsonl
python3 "$GATE" --baseline fleet-obs --fresh fleet-serial-obs
"$TGC" report fleet.jsonl --out fleet.html
"$TGC" report fleet-serial.jsonl --out fleet-serial.html
cmp fleet.html fleet-serial.html
heading fleet.html "mean awake ratio"
if "$TGC" fleet "${GRID[@]}" --seeds 1,2,3 --no-progress --resume \
    --out fleet.jsonl --obs-out fleet-obs --obs nodes,quality; then
  echo "fleet --resume accepted a different grid" >&2; exit 1
fi
if "$TGC" fleet "${GRID[@]}" --seeds 1,2 --no-progress --resume \
    --out fleet.jsonl; then
  echo "fleet --resume accepted an unarmed pass over an armed sink" >&2; exit 1
fi
echo "observability checks passed in $WORK"
