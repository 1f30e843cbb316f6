#!/usr/bin/env bash
# Repo hygiene gates, runnable locally (`bash ci/gates.sh`) and in CI's
# lint job. Each gate greps for a pattern that is only permitted in named
# places; any other occurrence is a regression.
#
# (The former gates on `run_queue` call sites and `allow(deprecated)`
# retired together with the deprecated pre-engine wrappers themselves —
# the symbols no longer exist, so the compiler is the gate now.)
set -u
cd "$(dirname "$0")/.."

fail=0

# Gate 1: deprecation cycles are over. The pre-engine free functions and
# the flat run_queue door were removed after a full deprecation cycle;
# nothing in the tree may reintroduce #[deprecated] shims (deprecate in a
# PR that also migrates the call sites, then delete — don't accumulate).
hits=$(grep -rnE '#\[deprecated|allow\([^)]*deprecated' --include='*.rs' . \
  | grep -v '^\./target/' \
  | grep -v '^\./vendor/' || true)
if [ -n "$hits" ]; then
  echo "deprecated-API shims or call sites reintroduced:"
  echo "$hits"
  fail=1
fi

# Gate 2: the rustdoc pass is load-bearing. lac-sim and lac-kernels build
# under #![warn(missing_docs)] (promoted to errors by CI's -D warnings);
# silencing the lint instead of writing the docs is a regression.
hits=$(grep -rnE 'allow\([^)]*missing_docs' --include='*.rs' ./crates ./src ./tests ./examples \
  2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "missing_docs lint silenced instead of documented:"
  echo "$hits"
  fail=1
fi

# Gate 3: Source decoding is confined to the two execution backends.
# Only the interpreter (core.rs) and the compiler (compile.rs) may match
# on `Source` variants; a decode anywhere else would be a third place the
# operand semantics live, free to drift from the differential suite's
# bit-identity contract. The one exception is the program store's codec
# in isa.rs, which packs each `Source` into a 32-bit word and back: a
# bijection that gives no variant a meaning (its round trip is
# property-tested in isa.rs).
hits=$(grep -rnE 'Source::[A-Za-z_]+(\([^)]*\))?[[:space:]]*=>' --include='*.rs' \
  ./crates ./src ./tests ./examples 2>/dev/null \
  | grep -v 'crates/lac-sim/src/core\.rs\|crates/lac-sim/src/compile\.rs\|crates/lac-sim/src/isa\.rs' || true)
if [ -n "$hits" ]; then
  echo "Source decoded outside the execution backends (core.rs / compile.rs) and the store codec (isa.rs):"
  echo "$hits"
  fail=1
fi

# Gate 4: one coordinator, one timing loop. Every door (the cluster, and
# the service as a one-chip cluster) describes its shards as a topology
# and calls `coord::coordinate`, whose one `Run` loop runs both
# time models: `SimMode::Wave` is only a dispatch rule (dispatch when every
# core is idle, finish at the barrier) on the event heap. A `SimMode` match
# arm anywhere — coord.rs included — or a second `fn drive_*` loop would
# be a second coordinator, free to drift from the equivalence suites.
hits=$(grep -rnE 'SimMode::[A-Za-z_]+[[:space:]]*=>|fn drive_' \
  --include='*.rs' ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "a SimMode match arm or a second timing loop (coord's Run is the only one):"
  echo "$hits"
  fail=1
fi

# Gate 5: one worker pool. The calling thread plus the coordinator's
# scoped workers (spawned on demand inside `coord::coordinate`, one per
# other core a multi-core dispatch batch needs) are the only threads that
# run jobs; every door — service, cluster — reaches them through
# that one call. A `thread::spawn` anywhere in library, example or bench
# code would be a second pool with its own lifetime, channels and failure
# handling. (Test-only `thread::scope` races, as in compile.rs, are not
# pools and stay allowed.)
hits=$(grep -rnE 'thread::spawn' --include='*.rs' \
  ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "threads spawned outside the coordinator's scoped worker pool:"
  echo "$hits"
  fail=1
fi

# Gate 6: one meter. A core's session is its own counters: every cycle a
# program simulates lands there, whichever door ran it, and
# `Lac::reset_session` zeroes them. A call that folds stats into a core
# (`absorb(`) would bring back a second accumulator beside those
# counters, free to double-count or miss work.
hits=$(grep -rnE 'absorb\(' --include='*.rs' \
  ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "a second stats accumulator (the core's counters are the session):"
  echo "$hits"
  fail=1
fi

# Gate 7: one operand layout per kernel. Each kernel file of lac-kernels
# states its external-memory image once, in its one staging function
# (gemm_update, syrk_update, trsm_stacked, cholesky_tile,
# lu_panel_matrix_run, vecnorm, fft64): it packs the operands into a
# private bank, runs, and unpacks. Blocked drivers and jobs call those
# functions with matrices. In non-test code (lines before a file's first
# `#[cfg(test)]`), a second bank in a kernel file, or a bank anywhere else,
# would be a second statement of a layout, free to drift from the first.
# (A core owns no bank to stage into: `Lac::run` and `Lac::run_kernel`
# take the caller's.)
banks=$(for f in ./crates/lac-kernels/src/*.rs; do
  awk '/#\[cfg\(test\)\]/ { exit }
       /ExternalMem::from_vec/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
hits=$( (echo "$banks" | grep -vE '/(gemm|syrk|trsm|chol|lu|vecnorm|fft)\.rs:' ;
  for f in $(echo "$banks" | cut -d: -f1 | sort | uniq -d); do
    echo "$banks" | grep "^$f:"
  done) | grep . || true)
if [ -n "$hits" ]; then
  echo "a kernel's operand image staged outside its one staging function:"
  echo "$hits"
  fail=1
fi

# Gate 8: one bench binary. Every paper table/figure and every perf bench
# is an entry of lac-bench's one registry (crates/lac-bench/src/main.rs),
# and `run_all` re-executes that same binary per entry, so the code that
# runs is the code that compares. A second binary target (a `src/bin/`
# file or a `[[bin]]` section) could be left stale by a build that skips
# it, and `run_all` or the perf gate would then read its old output.
hits=$( (find ./crates/lac-bench/src/bin 2>/dev/null ;
  grep -nHE '^\[\[bin\]\]' ./crates/lac-bench/Cargo.toml) || true)
if [ -n "$hits" ]; then
  echo "a second lac-bench binary target (the registry in src/main.rs is the only one):"
  echo "$hits"
  fail=1
fi

# Gate 9: no process-global mutable state in library code. Every store —
# kernel programs and their compiled lowerings included — belongs to a
# cluster (`ProgramCache`) or a core, so two clusters in one process
# share nothing and a reading taken from one is that cluster's alone. In
# non-test code (lines before a file's first `#[cfg(test)]`) of
# `crates/*/src` and `src`, a `static` of a `Mutex`, `RwLock`, `OnceLock`,
# `Atomic*` or `Cell` type, or a `thread_local!`, would be state shared by
# every cluster in the process. (perfbench's span tracer is a benchmark
# harness, not library code, and is not scanned.)
hits=$(for f in $(find ./crates/*/src ./src -name '*.rs' 2>/dev/null); do
  awk '/#\[cfg\(test\)\]/ { exit }
       /thread_local!/ ||
       /(^|[^A-Za-z0-9_])static[[:space:]]+(mut[[:space:]]+)?[A-Za-z0-9_]+[[:space:]]*:.*(Mutex|RwLock|OnceLock|Atomic[A-Za-z0-9]*|Cell)/ {
         print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
  echo "process-global mutable state in library code (stores belong to a cluster or a core):"
  echo "$hits"
  fail=1
fi

# Gate 10: one core type. Jobs, workloads, kernels and a chip's shards
# all run on `Lac`, whose own counters are the session; no wrapper stands
# between a caller and the core. A `LacEngine` type (or its builder), or a
# `fn core_mut` reaching through one, would be a second door to the same
# core. The one exception is the documented `pub type LacEngine = Lac;`
# alias in lac-sim's lib.rs, kept only for perfbench (not scanned), which
# still names it.
hits=$(grep -rnE 'LacEngine|fn core_mut' --include='*.rs' \
  ./crates/*/src ./crates/*/tests ./crates/*/benches ./src ./tests ./examples 2>/dev/null \
  | grep -vE '^\./crates/lac-sim/src/lib\.rs:[0-9]+:pub type LacEngine = Lac;$' || true)
if [ -n "$hits" ]; then
  echo "a wrapper around the core (Lac is the one core type):"
  echo "$hits"
  fail=1
fi

# Gate 11: the coordinator's state is one struct. `coord::Run` owns the
# plan, the per-job table, the ready index, the heap, the meters and the
# log, and every step of the loop is a method on it. A `macro_rules!` in
# coord.rs would be a step closing over loose locals again, out of reach
# of the borrow checker's field-by-field view and of clippy's function
# length limit (`clippy.toml`, enforced by coord.rs's
# `#![warn(clippy::too_many_lines)]`).
hits=$(grep -nE 'macro_rules!' ./crates/lac-sim/src/coord.rs 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "a macro in the coordinator (its steps are methods of coord::Run):"
  echo "$hits"
  fail=1
fi

# Gate 12: the coordinator fails through one channel. A job's failure —
# a schedule rejection or a panic caught where the job ran
# (`HazardKind::JobPanicked`) — is a `SimError` that `collect_batch`
# orders by dispatch, and an internal invariant is an `expect("invariant:
# …")` that says why no caller reaches it. A `panic!(` or `unreachable!(`
# in coord.rs's non-test code (lines before its first `#[cfg(test)]`)
# would be a second, untyped exit from a run.
hits=$(awk '/#\[cfg\(test\)\]/ { exit }
            /(panic|unreachable)!\(/ { print FILENAME ":" FNR ": " $0 }' \
  ./crates/lac-sim/src/coord.rs)
if [ -n "$hits" ]; then
  echo "a panic in the coordinator (failures are SimErrors, invariants expect(\"invariant: …\")):"
  echo "$hits"
  fail=1
fi

# Gate 13: one meter per job. A job's event counters live in the core's
# session (`Lac::session_stats`; a standalone run's share is a delta via
# `ExecStats::since`), and the coordinator meters each graph job into its
# shard. An `ExecStats` field in a lac-kernels struct or enum (a report,
# its details, a job output) would copy that meter into every output: a
# second record of the same cycles, free to drift from the first, paid
# for in every report a run keeps. Scans non-test code (lines before a
# file's first `#[cfg(test)]`), skipping comment lines.
hits=$(for f in ./crates/lac-kernels/src/*.rs; do
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?(struct|enum)[[:space:]]/ { item = 1; depth = 0; opened = 0 }
       item {
         if ($0 ~ /ExecStats/ && $0 !~ /^[[:space:]]*\/\//) print FILENAME ":" FNR ": " $0
         o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
         if (o > 0) opened = 1
         if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) item = 0
       }' "$f"
done)
if [ -n "$hits" ]; then
  echo "a job output carrying its own counters (the core's session is the one meter):"
  echo "$hits"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "all grep gates passed"
fi
exit "$fail"
