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
# and calls `coord::coordinate`, whose one `drive` loop runs both
# time models: `SimMode::Wave` is only a dispatch rule (dispatch when every
# core is idle, finish at the barrier) on the event heap. A `SimMode` match
# arm anywhere — coord.rs included — or a second `fn drive_*` loop would
# be a second coordinator, free to drift from the equivalence suites.
hits=$(grep -rnE 'SimMode::[A-Za-z_]+[[:space:]]*=>|fn drive_' \
  --include='*.rs' ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "a SimMode match arm or a second timing loop (coord::drive is the only one):"
  echo "$hits"
  fail=1
fi

# Gate 5: one worker pool. The calling thread plus the coordinator's
# scoped workers (spawned on demand inside `coord::coordinate`, one per
# other core a multi-core dispatch batch needs) are the only threads that
# run jobs; every door — service, cluster — reaches them through
# that one call. A `thread::spawn` anywhere in library, example or bench
# code would be a second pool with its own lifetime, channels and failure
# handling. (Test-only `thread::scope` races in memo.rs and compile.rs are
# not pools and stay allowed.)
hits=$(grep -rnE 'thread::spawn' --include='*.rs' \
  ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "threads spawned outside the coordinator's scoped worker pool:"
  echo "$hits"
  fail=1
fi

# Gate 6: one meter. An engine's session is its core's own counters:
# every cycle a program simulates lands there, whichever door ran it, and
# `LacEngine::reset_session` zeroes them. A call that folds stats into an
# engine (`absorb(`) would bring back a second accumulator beside those
# counters, free to double-count or miss work.
hits=$(grep -rnE 'absorb\(' --include='*.rs' \
  ./crates/*/src ./src ./examples ./perfbench/src 2>/dev/null || true)
if [ -n "$hits" ]; then
  echo "a second stats accumulator (the core's counters are the session):"
  echo "$hits"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "all grep gates passed"
fi
exit "$fail"
