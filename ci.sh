#!/bin/sh
# Local CI gate: everything must pass before a change lands.
#
#   ./ci.sh          # build + tests + formatting
#
# The suite is fully offline and dependency-free: the workspace builds
# against the standard library only, and all randomized tests run on the
# in-tree deterministic test kit (`harness::testkit`).
set -eu
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> ringlint gate (shipped programs verify-clean; warnings deny by default)"
cargo build --release -q -p systolic-ring-asm -p systolic-ring-lint
lintdir="$(mktemp -d)"
trap 'rm -rf "$lintdir"' EXIT
for src in programs/*.sr programs/*.sr.md; do
    obj="$lintdir/$(basename "$src" | sed 's/\.sr\(\.md\)\?$//').obj"
    ./target/release/srasm "$src" -o "$obj"
done
./target/release/ringlint "$lintdir"/*.obj
# The machine-readable mode must stay stable and report every object.
./target/release/ringlint --json "$lintdir"/*.obj | grep -q '"version":1'
cargo test -q --test lint_crosscheck shipped_corpus_lints_without_warnings

echo "==> conformance gate (programs/ on slow+decoded+fused+aot, cross-tier bit-equality)"
# Writes to a scratch path: the checked-in BENCH_conformance.json is the
# baseline the perf gate below compares against, so CI must not clobber it.
cargo run --release -q -p systolic-ring-bench --bin srconform -- \
    --dir programs --json "$lintdir/BENCH_conformance.json"

echo "==> perf gate (fresh simulated-cycle metrics vs checked-in BENCH_*.json)"
cargo run --release -q -p systolic-ring-bench --bin srbench-compare

echo "==> perf smoke (report -- json round-trips through the comparator)"
cargo run --release -q -p systolic-ring-bench --bin report -- json "$lintdir" --quick
cargo run --release -q -p systolic-ring-bench --bin srbench-compare -- \
    --baseline . --fresh "$lintdir"

echo "==> service smoke (srserved + srload over TCP, graceful drain must exit 0)"
cargo build --release -q -p systolic-ring-server -p systolic-ring-bench
./target/release/srserved --port-file "$lintdir/srserved.port" &
srserved_pid=$!
for _ in $(seq 1 100); do
    [ -s "$lintdir/srserved.port" ] && break
    sleep 0.1
done
[ -s "$lintdir/srserved.port" ] || { echo "srserved never bound"; exit 1; }
./target/release/srload --addr "$(cat "$lintdir/srserved.port")" \
    --jobs 24 --rate 200 --out "$lintdir/BENCH_service_load.json" --drain
# Drain must shut the server down cleanly: a nonzero exit (jobs lost,
# checkpoints unparked, sockets leaked) fails CI here via set -e.
wait "$srserved_pid"
grep -q '"suite": "service_load"' "$lintdir/BENCH_service_load.json"

echo "==> perfbench smoke (the repository benchmark's bit-exact output checks)"
# One short run per workload; the result line must report every output
# correct, so a core change that breaks the benchmark's checks fails here.
for workload in paper_motion service_path; do
    result="$(CARGO_TARGET_DIR=target/perfbench cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    echo "$workload: $result"
    case "$result" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *) echo "perfbench $workload: output checks failed"; exit 1 ;;
    esac
done

echo "==> lint self-test smoke (negative corpus must keep tripping)"
cargo test -q -p systolic-ring-lint --test negative_corpus
cargo test -q -p systolic-ring-lint --test cli

echo "==> verify speed gate (static proofs >=50x faster than simulating, recorded row)"
cargo bench -q -p systolic-ring-bench --bench verify

echo "==> chaos smoke (fault injection, 1 seed, 2 kernel families)"
cargo test -q --test chaos chaos_smoke

echo "==> fused smoke (fused vs decoded differential, 1 oracle round)"
cargo test -q --test fused fused_smoke

echo "==> aot smoke (aot vs decoded differential over the kernel families)"
cargo test -q --test fused aot_smoke

echo "==> cargo bench --no-run (bench code must keep compiling)"
cargo bench --no-run --workspace -q

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci: all checks passed"
