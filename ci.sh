#!/usr/bin/env bash
# Local CI gate — mirrors .github/workflows/ci.yml exactly.
#
# All dependencies are vendored as workspace shims (see shims/), so every
# step below runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The supervised conversion path must not panic out of library code: the
# fallback ladder and the panic-safe pool are only as strong as the absence
# of unwrap/expect beneath them — and since the undo journal, so are the
# storage engines and executors whose rollback those boundaries trigger.
# The lock table (dbpc-storage) and the conversion service with its job
# journal and crash recovery (dbpc-convert: service.rs + journal.rs) sit
# under the same gates: both crates' lib targets are covered below, as is
# the restructuring crate, whose data translator the durable translation
# and the service run unsupervised. The analyzer runs under the ladder's
# catch_unwind like the converter does, so its lib is covered too.
# Scoped to the crates' lib targets (tests and benches may unwrap);
# --no-deps keeps the extra lints from leaking into dependency crates.
echo "==> cargo clippy (no unwrap/expect in storage + engine + analyzer + convert + corpus + restructure libs)"
cargo clippy -p dbpc-storage --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p dbpc-engine --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p dbpc-analyzer --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p dbpc-convert --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p dbpc-corpus --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
cargo clippy -p dbpc-restructure --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Docs link to public names by path; a rename or deletion must not leave
# a dangling intra-doc link behind, and no other rustdoc warning (a public
# doc linking a private item, a redundant link target) may pass either.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# The repository benchmark is a workspace of its own (benchmark/), so the
# steps above never format, lint, build or test it.
echo "==> benchmark package (fmt, clippy, tests)"
cargo fmt --check --manifest-path benchmark/Cargo.toml
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The buffer page table and the heap's fit tree do u16/index arithmetic
# that debug builds overflow-check and release builds wrap: run the
# storage crate's tests in the release profile too.
echo "==> cargo test -q --release -p dbpc-storage"
cargo test -q --release -p dbpc-storage

echo "==> bench smoke (access paths)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench access_paths

# The paper's efficiency claims (EXPERIMENTS E1, E3-E8) as orderings of
# paired timings: rewrite < emulate < bridge, optimized < unoptimized,
# declarative < procedural, differential <= full retranslation, and
# analysis cost linear in program size.
echo "==> bench smoke (paper shapes)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench paper_shapes

echo "==> bench smoke (conversion throughput)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench conversion_throughput

echo "==> bench smoke (fault tolerance)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench fault_tolerance

echo "==> bench smoke (recovery)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench recovery

echo "==> bench smoke (observability)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench observability

echo "==> bench smoke (planner)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench planner

echo "==> bench smoke (service load)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench service_load

echo "==> bench smoke (durability)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench durability

echo "==> bench smoke (service recovery)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench service_recovery

# The full run adds the timing gate: over alternating rounds, the median
# of midpoint recovery / from-scratch re-run is <= 0.8 (dbpc_bench::paired),
# so a slow journal decoder cannot come back unnoticed. It rewrites
# BENCH_service_recovery.json.
echo "==> bench (service recovery, full run with timing gate)"
cargo bench -p dbpc-bench --bench service_recovery

echo "==> bench smoke (E22 out-of-core scale)"
DBPC_BENCH_SMOKE=1 cargo bench -p dbpc-bench --bench scale

# The E21 chaos matrix runs inside the workspace test step too, but it is
# the crash-safety acceptance gate, so it gets a named step: a failure
# here means a killed service no longer replays to a byte-identical
# report.
echo "==> E21 smoke (service crash-replay chaos matrix)"
cargo test -q --test service_crash

# A finished service job's observability shard is its encoded DONE bytes,
# bracketed by dense metric ids: the bracket's delta must equal the
# snapshot delta entry for entry, and a durable service and a journal-less
# one must keep (and report) the same bytes.
echo "==> per-job observability shards (bracket equals snapshot, one shard encoding)"
cargo test -q -p dbpc-obs --lib bracket_delta_equals_snapshot_since
cargo test -q -p dbpc-convert --lib -- one_shard_encoding halted_service_journals_shards

# Every admitted job is accounted exactly once: a start-up shed counts as
# shed, not replayed; a drain shed is journaled and never replayed; and
# the concurrent service stays byte-identical to its serial reference.
echo "==> service admission and recovery accounting"
cargo test -q -p dbpc-convert --lib -- startup_sheds_are_counted_as_shed_not_replayed drain_sheds_are_journaled_and_never_replayed
cargo test -q --test service_equivalence

# Convert-and-verify has one run boundary and one judge: all four
# executors (host, DBTG, DL/I, SEQUEL) roll a failed run back through the
# same atomic boundary and still report its access counters, and the
# ladder's rungs and the E2 matrix, judged by one trace judge, stay
# byte-identical.
echo "==> one atomic run, one judge"
cargo test -q --test executor_atomicity
cargo test -q --test txn_invariants
cargo test -q --test fault_ladder
cargo test -q --test parallel_determinism

# The parallel map hands out items from one shared cursor: a slow item
# must not hold back the items after it, and repeated wide study runs,
# whose cell placement varies, must agree byte for byte.
echo "==> parallel map: claiming and determinism"
cargo test -q -p dbpc-storage --lib pool
cargo test -q --test obs_determinism

# Each E2 study owns its program and ground-truth memos, so repeated
# studies in one process compute their own, and builds its verification
# databases once, through the replica pool the service uses; the planner
# tests name their mode instead of writing the process-wide one.
echo "==> study-scoped memos"
cargo test -q -p dbpc-corpus --lib harness::tests::memos_live_for_one_study
cargo test -q -p dbpc-corpus --lib harness::tests::verification_databases_are_built_once_per_study
cargo test -q -p dbpc-convert --lib equivalence::tests::pool_
cargo test -q -p dbpc-engine --lib planner
cargo test -q --test plan_equivalence
cargo test -q --test parallel_determinism

# One ground-truth memo per source database: hits are confirmed by
# program equality, the memo is bounded by a constant, concurrent lookups
# share one fill, contexts over one source share it, both sides verify
# under the ladder's fuel, and each verifying study cell is timed under
# one stage.verification span.
echo "==> one ground truth per source (equality keys, bounded memo, one fuel)"
cargo test -q -p dbpc-convert --lib equivalence::tests::ground_truth_
cargo test -q -p dbpc-convert --lib equivalence::tests::concurrent_lookups_share_one_fill
cargo test -q -p dbpc-convert --lib service::tests::contexts_over_one_source_share_one_ground_truth
cargo test -q -p dbpc-convert --lib service::tests::verification_runs_under_the_ladder_fuel
cargo test -q -p dbpc-corpus --lib harness::tests::each_verifying_cell_opens_one_verification_span

# The translation crash matrix is the one gate on data-translation crash
# safety: a durable translation killed at every batch boundary of four
# transform shapes must recover byte-identical to the one-shot.
echo "==> translation crash matrix (durable translation recovery)"
cargo test -q --test translation_recovery

# The checkpoint's crash-safety gate: the E20 matrices kill a child
# process at every commit, every translation batch and every fault cell
# inside a heap checkpoint, and a fresh process must recover the
# committed prefix; the checkpoint-I/O tests hold a checkpoint to one
# write per dirty page plus a fixed overhead.
echo "==> checkpoint crash safety (E20 recovery matrix, checkpoint I/O bound)"
cargo test -q --test durable_recovery
cargo test -q -p dbpc-storage --test checkpoint_io

# The paged record path's I/O budget: each record operation pins its
# pages an exact number of times, and a pool miss reads the disk only for
# a page it evicted earlier, never for a page the heap has just appended.
echo "==> paged I/O budget (exact pins and disk reads)"
cargo test -q -p dbpc-storage --test pin_budget

# The paged record store must stay invisible: the E2/E9 program slice
# runs byte-identical on paged databases under 4, 32 and 4096 frames and
# on the in-memory engine. It is the oracle for every change to the heap,
# its directory and its single-field reads.
echo "==> buffer-pressure equivalence (paged vs in-memory byte identity)"
cargo test -q --test buffer_pressure

# The set-store oracles: savepoint rollback and commit across every
# unlink-by-key path (connect, disconnect, reposition, erase), in memory
# and on a 4-frame paged twin, and duplicate set keys refused by store,
# connect and rename without a trace.
echo "==> set-store rollback invariants (in memory and paged)"
cargo test -q --test txn_invariants
echo "==> set-store invariants (ordering, duplicates refused)"
cargo test -q --test storage_invariants

# The obs export path end to end: run the E2 study with DBPC_OBS_JSON set,
# then validate the exported RunReport with the in-repo schema checker
# (parse, logical-clock nesting, byte-identical round trip).
echo "==> obs smoke (export E2 run report, validate schema)"
obs_json="$(mktemp /tmp/obs_e2.XXXXXX.json)"
DBPC_OBS_JSON="$obs_json" cargo run -q --release -p dbpc-bench --bin success_rate -- 2 1979 >/dev/null
cargo run -q --release -p dbpc-bench --bin obs_check -- "$obs_json"
rm -f "$obs_json"

echo "CI OK"
