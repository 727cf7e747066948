#!/bin/sh
# CI entry point: build (with the formatting of dune files), run the
# full test suite, then the self-test gates, each of which exits non-zero
# when its campaign finds a failure, and the CLI smokes.  Every step is
# described where it runs.
set -eu
cd "$(dirname "$0")/.."

dune build
dune build @fmt
dune runtest

# resbench mirrors the batch path (cache key, layered analysis, TSV row)
# to time it layer by layer; its counts check fails if that mirror no
# longer reproduces the library's rows, TSV and cache hits.
dune build @resbench/counts

# Each suffix is replayed once.  The traced deep-chain run exits non-zero
# if resbench's layered mirror renders a report that differs from
# Res.analyze; its replay count must also equal the suffixes synthesized.
trace_out=$(bash resbench/run.sh --workload deep-chain --seed 1 --seconds 0 \
  --trace 1)
trace_count() {
  echo "$trace_out" | tail -n 1 \
    | sed -n "s/.*\"$1\": {\"value\": \([0-9]*\),.*/\1/p"
}
replay_runs=$(trace_count replay.runs)
suffixes=$(trace_count search.suffixes)
[ -n "$replay_runs" ] && [ "$replay_runs" = "$suffixes" ] \
  || { echo "replay.runs=$replay_runs but search.suffixes=$suffixes"; exit 1; }

# The fork-backed gates keep their scratch files under $TMPDIR.  They
# run the built binary under a private TMPDIR, which must be empty again
# once the last of them has exited.
RES=_build/default/bin/res_cli.exe
gate_tmp=$(mktemp -d)
cache_tmp=$(mktemp -d)
trap 'rm -rf "$gate_tmp" "$cache_tmp"' EXIT

# Smoke of the E3 benchmark, whose depth sweep times long-exec analyses
# at d = 25, 50, 100, 200 and 400: it must run to the end and print the
# deepest row.
dune exec bench/main.exe e3 > "$cache_tmp/e3.txt" \
  || { echo "bench/main.exe e3 exited non-zero"; exit 1; }
grep -q '^400 ' "$cache_tmp/e3.txt" \
  || { echo "bench/main.exe e3 printed no d = 400 row"; exit 1; }
# Its bytes and digest columns are the size and MD5 of the rendered
# report list at each depth, so a report renderer that drifts by one
# byte, or changes bytes but not their count, fails here.
for row in 25:13562:6f96ce9c3cab1a3544ac62bb594d2fdc \
    50:41537:ea46fb0d9648b858c76124e4ee25caae \
    100:140613:5081690a6e8ecb743040ea4fe9e2f6c0 \
    200:511438:e1976ff1e9ff00be4802ffc75cade795 \
    400:1943138:4af345836bf0a9fb28f1297ae17f67d6; do
  d=${row%%:*}
  expected=${row#*:}
  got=$(awk -v d="$d" '/^depth sweep/ { sweep = 1 } sweep && $1 == d { print $7 ":" $9 }' \
    "$cache_tmp/e3.txt")
  [ "$got" = "$expected" ] \
    || { echo "e3 rendered bytes:digest $got at d = $d, expected $expected"; exit 1; }
done
# Its handoffs column counts the replays handed off to the suffix one
# segment shorter: on long-exec every suffix but the first extends the
# one before it, so a handoff that stops firing fails here.
for d in 25 50 100 200 400; do
  handoffs=$(awk -v d="$d" '/^depth sweep/ { sweep = 1 } sweep && $1 == d { print $8 }' \
    "$cache_tmp/e3.txt")
  [ "$handoffs" = "$((d - 1))" ] \
    || { echo "e3 handed off $handoffs replays at d = $d, expected $((d - 1))"; exit 1; }
done

# Smoke of the E20 benchmark, whose walk table steps the debugger over
# every position of long-exec-50's 55-segment suffix in both directions:
# it must run to the end, and a reverse walk at interval 16 must
# re-execute no more instructions than the timeline has steps, because a
# backward seek keeps the images of the window it replays.
dune exec bench/main.exe e20 > "$cache_tmp/e20.txt" \
  || { echo "bench/main.exe e20 exited non-zero"; exit 1; }
steps=$(awk '/^suffix timeline:/ { print $3 }' "$cache_tmp/e20.txt")
replayed=$(awk '/^walks over/ { walks = 1 }
  walks && $1 == "16" && $2 == "reverse" { print $6 }' "$cache_tmp/e20.txt")
[ -n "$steps" ] && [ -n "$replayed" ] && [ "$replayed" -le "$steps" ] \
  || { echo "e20 reverse walk at interval 16 re-executed ${replayed:-no} \
instructions over ${steps:-no} steps"; exit 1; }

# Smoke of the E19 benchmark, the only caller of the static coverage
# table (Invert.program_coverage): it must run to the end, print one
# invertible=X/Y row per workload and no crash-slice column, and every
# report it compares with the fast path on and off must be identical.
dune exec bench/main.exe e19 > "$cache_tmp/e19.txt" \
  || { echo "bench/main.exe e19 exited non-zero"; exit 1; }
n_workloads=$("$RES" workload | tail -n +2 | grep -c .)
n_coverage=$(grep -c ' invertible=[0-9]*/[0-9]*$' "$cache_tmp/e19.txt" || true)
[ "$n_coverage" = "$n_workloads" ] \
  || { echo "e19 printed $n_coverage coverage rows for $n_workloads workloads"; exit 1; }
if grep -q 'slice=' "$cache_tmp/e19.txt"; then
  echo "e19 still prints a slice= column"; exit 1
fi
reports=$(awk '/^equivalence campaign/ { rows = 1; next }
  /^campaign:/ { rows = 0 }
  rows && $1 != "workload" { print $NF }' "$cache_tmp/e19.txt")
n_identical=$(echo "$reports" | grep -cx identical || true)
[ "$n_identical" = "$n_workloads" ] && [ "$(echo "$reports" | grep -c .)" = "$n_workloads" ] \
  || { echo "e19 report rows not all identical: $(echo $reports)"; exit 1; }
awk '$1 == "on" { print $NF }' "$cache_tmp/e19.txt" | grep -qx identical \
  || { echo "e19 deep-chain reports differ with the fast path on"; exit 1; }

# At most one campaign per selftest: a second campaign flag is a usage
# error (exit 124), not a silently dropped campaign.
rc=0
"$RES" selftest --prune-equivalence --reverse-equivalence >/dev/null 2>&1 \
  || rc=$?
[ "$rc" -eq 124 ] \
  || { echo "conflicting selftest flags exited $rc, expected 124"; exit 1; }

# An unknown workload name is a usage error (exit 124) that lists the
# valid names, not an internal error.
rc=0
"$RES" workload fig1 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 124 ] \
  || { echo "res workload with an unknown name exited $rc, expected 124"; exit 1; }

# An input path that cannot be read (here a directory) is a one-line
# error with exit 1 that names the directory once, never an internal
# error.
rc=0
"$RES" validate "$gate_tmp" 2> "$cache_tmp/validate-dir.err" || rc=$?
[ "$rc" -eq 1 ] \
  && [ "$(cat "$cache_tmp/validate-dir.err")" \
       = "res: error: cannot read $gate_tmp: Is a directory" ] \
  || { echo "res validate on a directory exited $rc: \
$(cat "$cache_tmp/validate-dir.err")"; exit 1; }

# The coredump encoder's bytes are pinned: every result-cache key, on
# disk and in a coordinator's cache, hashes them, so an encoder that
# changes one byte silently invalidates every stored verdict.  The
# program printer's bytes are pinned for the same reason: every key
# hashes the program text too.  Each pin is workload:dump MD5:program MD5.
for pin in counter-race:9864c04f3e9d0436d8f590a964ba5e46:8964a799ccbcce887f9c2cfc47f3403e \
    fig1-overflow:8a387e444df16df1e9ac4706c422abae:636a3c5f51affd418ec373be17a2601c \
    long-exec-50:2e588c66ca5ff255836b4f9b68a60d40:4c72a56dd804db517462b8c46e36fccc; do
  w=${pin%%:*}
  sums=${pin#*:}
  "$RES" workload "$w" -o "$cache_tmp/pin.core" --program "$cache_tmp/pin.res" > /dev/null
  sum=$(md5sum < "$cache_tmp/pin.core" | cut -d' ' -f1)
  [ "$sum" = "${sums%%:*}" ] \
    || { echo "res workload $w wrote a dump with MD5 $sum, pinned ${sums%%:*}"; exit 1; }
  sum=$(md5sum < "$cache_tmp/pin.res" | cut -d' ' -f1)
  [ "$sum" = "${sums#*:}" ] \
    || { echo "res workload $w wrote a program with MD5 $sum, pinned ${sums#*:}"; exit 1; }
done

# Fault-injection gate: no perturbed analysis may escape with an
# exception, and the 1s deadline must be honored within 10%.
dune exec bin/res_cli.exe -- selftest --runs 60
# A fuel-starved analysis is a partial outcome: it exits 4 and prints
# the reports it salvaged under a PARTIAL outcome line.
"$RES" workload long-exec-50 -o "$cache_tmp/long.core" \
  --program "$cache_tmp/long.res" > /dev/null
rc=0
"$RES" analyze "$cache_tmp/long.res" "$cache_tmp/long.core" --depth 20 \
  --fuel 5 > "$cache_tmp/starved.txt" || rc=$?
[ "$rc" -eq 4 ] && grep -q "^outcome: PARTIAL" "$cache_tmp/starved.txt" \
  || { echo "fuel-starved analyze exited $rc without a partial outcome"; exit 1; }

# Equivalence gates: disabling the static pruner, or the concrete
# reverse-execution fast path, must not change any workload's reports
# (the latter under a hard timeout: equivalence is only meaningful if the
# fast path is also fast).  SIGKILLing batch-triage workers mid-unit
# must not change the final TSV.
dune exec bin/res_cli.exe -- selftest --prune-equivalence
timeout 120 dune exec bin/res_cli.exe -- selftest --reverse-equivalence
TMPDIR="$gate_tmp" "$RES" selftest --worker-kill

# Serve-soak gate: flood the triage daemon past capacity, SIGKILL a
# worker and then the daemon itself; fails if any accepted request is
# lost, any served report diverges from offline analyze, the breaker
# fails to trip and recover, or drain exits non-zero.  Cluster-soak
# gate: SIGKILL the coordinator mid-corpus (resuming it from its
# result cache), SIGKILL a node, stall a node past the unit deadline; fails
# if any unit is lost or any merged TSV differs from single-node triage.
# Both run under a hard timeout so a wedged daemon or cluster fails CI
# instead of hanging it.
TMPDIR="$gate_tmp" timeout 120 "$RES" selftest --serve-soak
TMPDIR="$gate_tmp" timeout 240 "$RES" selftest --cluster-soak

# Byzantine-node gate: one of three node daemons computes honestly but
# falsifies the rows it returns (wrong unit name, then fabricated
# verdict fields); exits non-zero unless every lie is rejected, the
# liar is quarantined, its units reschedule, and the merged TSV stays
# byte-identical to single-node triage with zero lost units.
TMPDIR="$gate_tmp" timeout 240 "$RES" selftest --byzantine

# Fuzzing gate: a bounded deterministic campaign over every sealed
# codec and text grammar; exits non-zero on any uncaught exception,
# hang, silent acceptance of damaged bytes, or rejected pristine seed.
timeout 240 dune exec bin/res_cli.exe -- fuzz --smoke

# Time-travel debugger gate: drive the same scripted session over every
# workload's crash at snapshot intervals {64,7,1} and with the index
# disabled entirely, and exit non-zero if any transcript or exit code
# differs by a byte — the snapshot index must be invisible except in
# latency.
timeout 120 dune exec bin/res_cli.exe -- selftest --debug-equivalence

# Result-cache gate: the chaos campaign (torn writes, injected disk
# faults, garbage and bit-flipped entries) under a hard timeout, then a
# cold/warm byte-identity smoke of the CLI flags themselves: the cold
# triage analyzes the two byte-identical dumps once (one duplicate), and
# a second triage of the same dumps must be answered entirely from the
# cache, emit the byte-identical TSV, and fork no worker.
TMPDIR="$gate_tmp" timeout 120 "$RES" selftest --cache-chaos
[ -z "$(ls -A "$gate_tmp")" ] \
  || { echo "selftest gates left files under TMPDIR:"; ls -A "$gate_tmp"; exit 1; }

mkdir "$cache_tmp/dumps"
dune exec bin/res_cli.exe -- workload counter-race \
  -o "$cache_tmp/dumps/a.core" --program "$cache_tmp/prog.res"
cp "$cache_tmp/dumps/a.core" "$cache_tmp/dumps/b.core"
dune exec bin/res_cli.exe -- triage "$cache_tmp/prog.res" \
  --dir "$cache_tmp/dumps" --cache-dir "$cache_tmp/cache" --stats \
  -j 2 --backend fork > "$cache_tmp/cold.tsv" 2> "$cache_tmp/cold.stats"
grep -q "duplicates=1" "$cache_tmp/cold.stats" \
  || { echo "cold triage did not share the duplicate's verdict:";
       cat "$cache_tmp/cold.stats"; exit 1; }
dune exec bin/res_cli.exe -- triage "$cache_tmp/prog.res" \
  --dir "$cache_tmp/dumps" --cache-dir "$cache_tmp/cache" --stats \
  -j 2 --backend fork > "$cache_tmp/warm.tsv" 2> "$cache_tmp/warm.stats"
cmp "$cache_tmp/cold.tsv" "$cache_tmp/warm.tsv" \
  || { echo "warm cached triage TSV diverged from cold"; exit 1; }
grep -q "cache_hits=2" "$cache_tmp/warm.stats" \
  || { echo "warm triage did not hit the cache:"; cat "$cache_tmp/warm.stats"; exit 1; }
# --stats counts only the work this run issued: a fully cached run none.
grep -q " nodes=0 pruned=0 .*solver_queries=0 " "$cache_tmp/warm.stats" \
  || { echo "warm triage counted work it did not issue:";
       cat "$cache_tmp/warm.stats"; exit 1; }
grep -q " workers=0 " "$cache_tmp/warm.stats" \
  || { echo "fully cached triage forked a worker:";
       cat "$cache_tmp/warm.stats"; exit 1; }

# `res triage --stats` counts each solver query once on either backend:
# the domains backend runs units on the main domain too, which must not
# count them a second time.
mkdir "$cache_tmp/one"
cp "$cache_tmp/dumps/a.core" "$cache_tmp/one/"
for backend in fork domains; do
  "$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/one" -j 2 \
    --backend "$backend" --stats > /dev/null 2> "$cache_tmp/$backend.stats"
done
fork_q=$(sed -n 's/.* solver_queries=\([0-9]*\) .*/\1/p' "$cache_tmp/fork.stats")
domains_q=$(sed -n 's/.* solver_queries=\([0-9]*\) .*/\1/p' "$cache_tmp/domains.stats")
[ -n "$fork_q" ] && [ "$fork_q" = "$domains_q" ] \
  || { echo "solver_queries: fork $fork_q, domains $domains_q"; exit 1; }

# A corpus load decodes each distinct content once: over byte-identical
# copies of one dump plus one other run's dump, `res triage --stats` and
# `res coordinate --stats` (whose load is the same) read every file and
# decode only the distinct contents.
mkdir "$cache_tmp/copies"
for i in 1 2 3 4 5; do cp "$cache_tmp/dumps/a.core" "$cache_tmp/copies/c$i.core"; done
"$RES" run "$cache_tmp/prog.res" --seed 1 -o "$cache_tmp/copies/other.core" > /dev/null
distinct=$(for f in "$cache_tmp"/copies/*; do md5sum < "$f"; done | sort -u | wc -l)
"$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/copies" --stats \
  > /dev/null 2> "$cache_tmp/copies.stats"
grep -q "^load files=6 decoded=$distinct\$" "$cache_tmp/copies.stats" \
  && [ "$distinct" -eq 2 ] \
  || { echo "triage of 6 files with $distinct distinct contents loaded:";
       cat "$cache_tmp/copies.stats"; exit 1; }

# A program's whole-program summaries are built once per program and
# shared by every analysis in the process: over three distinct dumps of
# one program, an in-process `res triage -j 1` builds them once and
# reuses them twice.
mkdir "$cache_tmp/distinct"
cp "$cache_tmp/dumps/a.core" "$cache_tmp/distinct/"
for seed in 1 2; do
  "$RES" run "$cache_tmp/prog.res" --seed "$seed" \
    -o "$cache_tmp/distinct/s$seed.core" > /dev/null
done
distinct=$(for f in "$cache_tmp"/distinct/*; do md5sum < "$f"; done | sort -u | wc -l)
"$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/distinct" -j 1 \
  --backend domains --stats > /dev/null 2> "$cache_tmp/distinct.stats"
[ "$distinct" -eq 3 ] \
  && grep -q "^statics built=1 reused=2\$" "$cache_tmp/distinct.stats" \
  || { echo "triage of $distinct distinct dumps of one program:";
       cat "$cache_tmp/distinct.stats"; exit 1; }

# Forked triage workers live no longer than the process that forked
# them: an exit hook kills and reaps them, after a one-shot `res triage
# -j 2 --backend fork` (one batch) and after a resbench corpus-triage run
# (whose passes reuse the first pass's workers) alike.  Once both have
# exited, no process with their command line is left.
"$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/distinct" -j 2 \
  --backend fork --stats > /dev/null 2> "$cache_tmp/forked.stats"
grep -q " workers=2 restarts=0 forked=2\$" "$cache_tmp/forked.stats" \
  || { echo "triage of 3 distinct dumps on 2 forked workers:";
       cat "$cache_tmp/forked.stats"; exit 1; }
bash resbench/run.sh --workload corpus-triage --seed 1 --seconds 1 --trace 0 \
  > /dev/null
for cmd in "res_cli.exe triage $cache_tmp/prog.res --dir $cache_tmp/distinct" \
    "resbench/main.exe --workload corpus-triage --seed 1 --seconds 1"; do
  ! pgrep -f "$cmd" > /dev/null \
    || { echo "processes left running after exit:"; pgrep -af "$cmd"; exit 1; }
done

# A coredump or program read from a pipe (here process substitution) is
# read to its end: `res analyze` prints the same report as for the files,
# but for the cpu time.
"$RES" analyze "$cache_tmp/prog.res" "$cache_tmp/dumps/a.core" \
  | grep -v '^cpu time:' > "$cache_tmp/file.report"
bash -c '"$0" analyze <(cat "$1") <(cat "$2")' "$RES" "$cache_tmp/prog.res" \
  "$cache_tmp/dumps/a.core" | grep -v '^cpu time:' > "$cache_tmp/pipe.report"
[ -s "$cache_tmp/file.report" ] && cmp "$cache_tmp/file.report" "$cache_tmp/pipe.report" \
  || { echo "res analyze read through pipes printed another report"; exit 1; }

# Scripted debugger session smoke: a passing script must exit 0 and its
# transcript must be byte-identical at a different snapshot interval and
# with the index off; a failing assert must exit 2, not 0 or 1.  The
# script also stops at breakpoints and watchpoints in both directions and
# bisects a transition, so the backward chunk scan and the transition
# search are byte-compared across intervals too.
cat > "$cache_tmp/session.dbg" <<'EOF'
where
threads
step 4
regs
step-back 2
where
continue
where
goto 0
break worker:upd:2
continue
continue
breaks
continue-back
delete 1
watch [&counter]
continue
continue-back
twatch [&counter] == 1
print [&counter]
assert 2 == 1 + 1
EOF
dune exec bin/res_cli.exe -- debug "$cache_tmp/prog.res" \
  "$cache_tmp/dumps/a.core" --script "$cache_tmp/session.dbg" \
  > "$cache_tmp/dbg64.txt" \
  || { echo "passing debug script exited non-zero"; exit 1; }
dune exec bin/res_cli.exe -- debug "$cache_tmp/prog.res" \
  "$cache_tmp/dumps/a.core" --script "$cache_tmp/session.dbg" \
  --snapshot-every 7 > "$cache_tmp/dbg7.txt"
dune exec bin/res_cli.exe -- debug "$cache_tmp/prog.res" \
  "$cache_tmp/dumps/a.core" --script "$cache_tmp/session.dbg" \
  --snapshot-every 0 > "$cache_tmp/dbg0.txt"
cmp "$cache_tmp/dbg64.txt" "$cache_tmp/dbg7.txt" \
  || { echo "debug transcript changed with snapshot interval 7"; exit 1; }
cmp "$cache_tmp/dbg64.txt" "$cache_tmp/dbg0.txt" \
  || { echo "debug transcript changed with the snapshot index off"; exit 1; }
echo "assert 1 == 2" > "$cache_tmp/fail.dbg"
dbg_rc=0
dune exec bin/res_cli.exe -- debug "$cache_tmp/prog.res" \
  "$cache_tmp/dumps/a.core" --script "$cache_tmp/fail.dbg" \
  > /dev/null || dbg_rc=$?
[ "$dbg_rc" -eq 2 ] \
  || { echo "failing debug assert exited $dbg_rc, expected 2"; exit 1; }

# A cached daemon submit must still mint a fetchable spool id: warm up
# the cache with one blocking submit, then a --no-wait submit answered
# from the cache must return a real id whose fetch replays the report.
# The daemon is run from the built binary, not `dune exec`: a
# backgrounded dune holds the build lock for as long as the daemon
# lives, deadlocking every later dune command in this script.
"$RES" serve --socket "$cache_tmp/s.sock" \
  --spool "$cache_tmp/spool" --cache-dir "$cache_tmp/srv-cache" &
serve_pid=$!
i=0
until "$RES" client ping --socket "$cache_tmp/s.sock" >/dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -le 100 ] || { echo "daemon never came up"; exit 1; }
  sleep 0.1
done
"$RES" client submit "$cache_tmp/prog.res" "$cache_tmp/dumps/a.core" \
  --socket "$cache_tmp/s.sock" > "$cache_tmp/s1.txt"
sid=$("$RES" client submit "$cache_tmp/prog.res" "$cache_tmp/dumps/a.core" \
  --socket "$cache_tmp/s.sock" --no-wait | awk '{print $2}')
"$RES" client fetch "$sid" --socket "$cache_tmp/s.sock" \
  > "$cache_tmp/s2.txt" \
  || { echo "cached submit id '$sid' is not fetchable"; exit 1; }
# A worker retired with the queue empty is reaped by the daemon's next
# passes (within its 50 ms tick): none may stay a zombie.
i=0
while ps -o stat= --ppid "$serve_pid" | grep -q Z; do
  i=$((i + 1))
  [ "$i" -le 20 ] || { echo "the daemon left a zombie worker:";
                      ps -o pid=,stat= --ppid "$serve_pid"; exit 1; }
  sleep 0.05
done
"$RES" client drain --socket "$cache_tmp/s.sock" >/dev/null
wait "$serve_pid"
# normalize the header line: id and elapsed are per-request noise
sed '1s/^result .*: \(.*\) (.*)$/result: \1/' "$cache_tmp/s1.txt" > "$cache_tmp/s1.norm"
sed '1s/^result .*: \(.*\) (.*)$/result: \1/' "$cache_tmp/s2.txt" > "$cache_tmp/s2.norm"
cmp "$cache_tmp/s1.norm" "$cache_tmp/s2.norm" \
  || { echo "fetched cached report diverged from the computed one"; exit 1; }

# The same daemon smoke over TCP, the transport `res coordinate` uses:
# ping, a blocking submit whose report must match the Unix-socket one,
# and a drain that exits 0.  Port 0 binds an ephemeral port, so
# concurrent runs cannot collide; --verbose logs the bound address.
"$RES" serve --socket 127.0.0.1:0 --spool "$cache_tmp/tcp-spool" \
  --cache-dir "$cache_tmp/node-cache" --verbose 2> "$cache_tmp/tcp.log" &
tcp_pid=$!
tcp_fail() { kill "$tcp_pid" 2>/dev/null; echo "$1"; cat "$cache_tmp/tcp.log"; exit 1; }
i=0
until tcp_addr=$(sed -n 's/^res-serve: listening on \([^ ]*\) .*/\1/p' \
    "$cache_tmp/tcp.log") && [ -n "$tcp_addr" ]; do
  i=$((i + 1)); [ "$i" -le 100 ] || tcp_fail "TCP daemon never came up"
  sleep 0.1
done
"$RES" client ping --socket "$tcp_addr" >/dev/null \
  || tcp_fail "TCP ping to $tcp_addr failed"
"$RES" client submit "$cache_tmp/prog.res" "$cache_tmp/dumps/a.core" \
  --socket "$tcp_addr" > "$cache_tmp/t1.txt" \
  || tcp_fail "TCP submit to $tcp_addr failed"
# `res coordinate` against that node, over a copy of the dumps plus one
# unloadable file: its TSV must be `res triage`'s over the same copy.
# a.core and b.core are byte-identical, so it dispatches one unit (the
# other is a duplicate), and its queries are `res triage`'s.
mkdir "$cache_tmp/co-dumps"
cp "$cache_tmp/dumps/a.core" "$cache_tmp/dumps/b.core" "$cache_tmp/co-dumps/"
echo "not a coredump" > "$cache_tmp/co-dumps/c.core"
"$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/co-dumps" --stats \
  > "$cache_tmp/co-triage.tsv" 2> "$cache_tmp/co-triage.stats"
"$RES" coordinate "$cache_tmp/prog.res" --dir "$cache_tmp/co-dumps" \
  --nodes "$tcp_addr" --cache-dir "$cache_tmp/co-cache" --stats \
  > "$cache_tmp/co1.tsv" 2> "$cache_tmp/co1.stats" \
  || tcp_fail "res coordinate over $tcp_addr failed"
cmp "$cache_tmp/co-triage.tsv" "$cache_tmp/co1.tsv" \
  || tcp_fail "res coordinate TSV diverged from res triage"
grep -q " applied=1 .* duplicates=1 " "$cache_tmp/co1.stats" \
  || tcp_fail "res coordinate did not dispatch once per content key: \
$(cat "$cache_tmp/co1.stats")"
# Its load decoded the two byte-identical dumps once, and the
# unloadable file (no decode is kept for an error).
grep -q "^load files=3 decoded=2$" "$cache_tmp/co1.stats" \
  || tcp_fail "res coordinate did not decode each distinct content once: \
$(cat "$cache_tmp/co1.stats")"
# The node keeps no record of the coordinator's units, which the
# coordinator retries itself: its spool holds only the one submit's
# request and result.
spooled=$(ls -A "$cache_tmp/tcp-spool" | tr '\n' ' ')
[ "$spooled" = "r000000.req r000000.res " ] \
  || tcp_fail "the node spooled more than the one submit: $spooled"
triage_q=$(sed -n 's/.* solver_queries=\([0-9]*\) .*/\1/p' "$cache_tmp/co-triage.stats")
co_q=$(sed -n 's/.* queries=\([0-9]*\) .*/\1/p' "$cache_tmp/co1.stats")
[ -n "$triage_q" ] && [ "$triage_q" = "$co_q" ] \
  || tcp_fail "res coordinate queries=$co_q, res triage solver_queries=$triage_q"
# The node cached its verdict as batch triage does, under the batch key
# with its default 30 s deadline: `res triage` with that deadline over
# the node's cache serves both loadable dumps from it, same TSV.
"$RES" triage "$cache_tmp/prog.res" --dir "$cache_tmp/co-dumps" --deadline 30 \
  --cache-dir "$cache_tmp/node-cache" --stats \
  > "$cache_tmp/nc.tsv" 2> "$cache_tmp/nc.stats"
cmp "$cache_tmp/co1.tsv" "$cache_tmp/nc.tsv" \
  || tcp_fail "res triage over the node's cache diverged"
grep -q "cache_hits=2 " "$cache_tmp/nc.stats" \
  || tcp_fail "res triage was not served from the node's cache: \
$(cat "$cache_tmp/nc.stats")"
"$RES" client drain --socket "$tcp_addr" >/dev/null \
  || tcp_fail "TCP drain of $tcp_addr failed"
wait "$tcp_pid" || { echo "TCP daemon drain exited non-zero"; exit 1; }
# The same corpus and cache against the now-dead node, one attempt per
# unit: the loadable dumps are answered from the cache, the unloadable
# file is settled locally, and the TSV is unchanged.
"$RES" coordinate "$cache_tmp/prog.res" --dir "$cache_tmp/co-dumps" \
  --nodes "$tcp_addr" --cache-dir "$cache_tmp/co-cache" --attempts 1 --stats \
  > "$cache_tmp/co2.tsv" 2> "$cache_tmp/co2.stats" \
  || { echo "cached res coordinate failed:"; cat "$cache_tmp/co2.stats"; exit 1; }
cmp "$cache_tmp/co1.tsv" "$cache_tmp/co2.tsv" \
  || { echo "cached res coordinate TSV diverged"; exit 1; }
grep -q " lost=0 .*cache_hits=2 " "$cache_tmp/co2.stats" \
  || { echo "cached res coordinate did not answer from the cache:";
       cat "$cache_tmp/co2.stats"; exit 1; }
sed '1s/^result .*: \(.*\) (.*)$/result: \1/' "$cache_tmp/t1.txt" > "$cache_tmp/t1.norm"
cmp "$cache_tmp/s1.norm" "$cache_tmp/t1.norm" \
  || { echo "TCP-served report diverged from the Unix-socket one"; exit 1; }
