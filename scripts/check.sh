#!/usr/bin/env sh
# Repo-wide checks, in the order a reviewer cares about them: formatting,
# lints (warnings are errors), the repo-specific lint gate, the full test
# suite, then an end-to-end invariant-audit smoke.
# Everything runs offline — the three external deps are vendored shims.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== static-analysis (token-aware determinism & panic-freedom gate)"
cargo run -q -p heteroprio-lint --bin audit-lint

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== perfbench self-tests (every workload reports every declared metric; a wrong digest fails every op)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== kernel-parity bench smoke (--test: parity asserts, no timing)"
cargo bench -q -p heteroprio-bench --bench kernel_parity -- --test

echo "== perf smoke + regression gate (>20% tasks/sec loss vs committed baseline fails)"
# Release mode: the gate compares wall-clock throughput against the
# committed BENCH_kernel.json, and debug timings always "regress".
cargo run -q --release -p heteroprio-cli -- perf --smoke --against BENCH_kernel.json

echo "== audit smoke: record a trace, then re-audit it from disk"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '8 1\n4 1\n2 2\n1 4\n3 3\n' > "$tmp/instance.txt"
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 --audit \
    --trace "$tmp/trace.jsonl" "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- audit --cpus 2 --gpus 1 \
    --trace "$tmp/trace.jsonl" "$tmp/instance.txt"
cargo run -q -p heteroprio-cli -- audit cholesky 8 --cpus 2 --gpus 1
# Paper scale (Cholesky N=32 on 20 CPUs + 4 GPUs), on the release binary
# the perf step already built.
cargo run -q --release -p heteroprio-cli -- audit cholesky 32 --cpus 20 --gpus 4

echo "== recovery smoke: journal a run, kill it mid-flight, resume, diff traces"
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 \
    --trace "$tmp/reference.jsonl" "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- schedule --cpus 2 --gpus 1 \
    --journal "$tmp/run.journal" --crash-at 14 \
    --snapshot "$tmp/run.ckpt" --checkpoint-every 2 "$tmp/instance.txt" > /dev/null
cargo run -q -p heteroprio-cli -- resume --journal "$tmp/run.journal" \
    --snapshot "$tmp/run.ckpt" --cpus 2 --gpus 1 \
    --trace "$tmp/resumed.jsonl" "$tmp/instance.txt" > /dev/null
diff "$tmp/reference.jsonl" "$tmp/resumed.jsonl"
# The same round trip for a non-HeteroPrio policy: DualHP on a DAG, crashed
# at its midpoint event, resumed through the runtime's durable dispatch.
cargo run -q -p heteroprio-cli -- dag cholesky 8 --cpus 2 --gpus 1 --algo dualhp \
    --trace "$tmp/dualhp.jsonl" > /dev/null
mid=$(( $(wc -l < "$tmp/dualhp.jsonl") / 2 ))
cargo run -q -p heteroprio-cli -- dag cholesky 8 --cpus 2 --gpus 1 --algo dualhp \
    --journal "$tmp/dualhp.journal" --crash-at "$mid" > /dev/null
cargo run -q -p heteroprio-cli -- resume --journal "$tmp/dualhp.journal" \
    --cpus 2 --gpus 1 --algo dualhp --trace "$tmp/dualhp-resumed.jsonl" cholesky 8 > /dev/null
diff "$tmp/dualhp.jsonl" "$tmp/dualhp-resumed.jsonl"
# Paper scale (Cholesky N=32 on 20 CPUs + 4 GPUs, crashed at its midpoint
# event), on the release binary the perf step already built: the resume
# decodes a real journal of ~1.3e4 records through the canonical-line decoder.
cargo run -q --release -p heteroprio-cli -- dag cholesky 32 --cpus 20 --gpus 4 \
    --trace "$tmp/reference32.jsonl" > /dev/null
mid=$(( $(wc -l < "$tmp/reference32.jsonl") / 2 ))
cargo run -q --release -p heteroprio-cli -- dag cholesky 32 --cpus 20 --gpus 4 \
    --journal "$tmp/run32.journal" --crash-at "$mid" > /dev/null
cargo run -q --release -p heteroprio-cli -- resume --journal "$tmp/run32.journal" \
    --cpus 20 --gpus 4 --trace "$tmp/resumed32.jsonl" cholesky 32 > /dev/null
diff "$tmp/reference32.jsonl" "$tmp/resumed32.jsonl"
# Many idle workers per empty instant: Cholesky N=8 on 20 CPUs + 4 GPUs
# leaves most CPUs asking for a spoliation victim at once, and the fault
# plan adds worker failures and task retries. The run is crashed at its
# midpoint event, resumed from the journal alone, and diffed.
faults='gpu@25%,fail=0.05,seed=3'
cargo run -q --release -p heteroprio-cli -- dag cholesky 8 --cpus 20 --gpus 4 \
    --faults "$faults" --trace "$tmp/idle8.jsonl" > /dev/null
mid=$(( $(wc -l < "$tmp/idle8.jsonl") / 2 ))
cargo run -q --release -p heteroprio-cli -- dag cholesky 8 --cpus 20 --gpus 4 \
    --faults "$faults" --journal "$tmp/idle8.journal" --crash-at "$mid" > /dev/null
cargo run -q --release -p heteroprio-cli -- resume --journal "$tmp/idle8.journal" \
    --cpus 20 --gpus 4 --trace "$tmp/idle8-resumed.jsonl" cholesky 8 --faults "$faults" > /dev/null
diff "$tmp/idle8.jsonl" "$tmp/idle8-resumed.jsonl"

echo "all checks passed"
