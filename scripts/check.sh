#!/usr/bin/env bash
# Full local gate: formatting, clippy (workspace lints as errors), tests,
# the workspace's own static analyzer, and the scheduler determinism sweep.
# CI (.github/workflows/ci.yml) runs exactly these steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test"
cargo test --workspace -q

echo "==> gnet analyze --deny --deny-stale"
cargo run --release -p gnet-cli --bin gnet -- analyze --deny --deny-stale

echo "==> gnet analyze --protocol --self-check (quick bounds)"
cargo run --release -p gnet-cli --bin gnet -- analyze --protocol --self-check

echo "==> gnet analyze --concurrency (100 seeded runs)"
cargo run --release -p gnet-cli --bin gnet -- analyze --concurrency --runs 100

echo "==> all checks passed"
