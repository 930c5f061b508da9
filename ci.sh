#!/usr/bin/env bash
# CI gate for the AASD reproduction. Run from the repo root:
#   ./ci.sh           # full gate: build, tests, fmt, clippy
#   ./ci.sh --quick   # tier-1 only: release build + tests
#
# The container is offline; everything here is std-only and must work
# without registry access.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "--quick" ]]; then
    # Tier-1 above has just run every suite once, unoptimized, on the host's
    # best kernel tier — the gradient checks, the distillation smoke, the
    # zero-allocation proof, and the nn / specdec / mm / serve crates
    # included. Nothing below repeats a (suite, tier, profile) it covered
    # except the default leg of the kernel-tier loop, kept so that one
    # labelled gate states the both-tiers contract on its own.

    echo "==> kernel-tier gate: losslessness + determinism suites on the forced-scalar and host-best tiers"
    # None of the paged KV pool, the vision cache, the
    # scheduler at 1 / 2 / 4 workers (SHUTDOWN draining every in-flight
    # request), the int8 kernels or the synthetic workloads' golden stream
    # fingerprints may move a token on any dispatch tier: run the suites pinned to the scalar reference and
    # again on the host's best backend, so a bug that only reproduces under
    # one tier cannot slip through on a machine where the other is the
    # default. The scalar leg is the slower one: its f32 kernels call the
    # runtime's `fmaf` once per term (`f32::mul_add` without `fma` enabled),
    # ≈ 38 → 42 s on the 2-vCPU box since PR 25 (EXPERIMENTS.md § PR 25).
    for tier in scalar default; do
        (
            if [[ $tier != default ]]; then export AASD_KERNEL=$tier; fi
            cargo test -q -p aasd --test serving_determinism --test mm_lossless \
                --test server_smoke --test int8_equivalence --test workload_determinism
            cargo test -q -p aasd-tensor
        )
    done

    echo "==> tile gate: f32 tile bitwise ≡ row-by-row vecmat ≡ naive loop in both weight layouts with one rounding per term, int8 tile bitwise ≡ the scalar dot loop, on every tier, as the release build compiles them"
    # The register-tiled matmul must give every row the bits of the vecmat
    # kernel, on every tier, over the row-major matrix and over the packed
    # panels `Linear` runs on, or verify stops reproducing decode; each term
    # must be one fused multiply-add (`tile_rounds_once_per_term_on_every_
    # tier`), which agreement alone cannot show — every path regressing to
    # multiply-then-add together would still agree; the int8
    # tile (`tile_q8_*`) must give every output the exact i32 dot at every
    # row count, or an int8 target's verify does. The suite
    # drives each supported tier through the explicit-backend entry; it runs
    # optimized (the code the benchmark measures — tier-1 above already ran
    # it unoptimized) with the process-global tier pinned to scalar and left
    # to the host's best, which also moves the Linear-level and
    # naive-reference checks across tiers.
    AASD_KERNEL=scalar cargo test -q --release -p aasd-tensor tile_
    AASD_KERNEL=scalar cargo test -q --release -p aasd-nn linear_
    cargo test -q --release -p aasd-tensor tile_
    cargo test -q --release -p aasd-nn linear_

    echo "==> table1 smoke gate: draft-zoo ordering + per-stream losslessness"
    # Reduced grid (γ=3 only, short training, few held-out pairs): the
    # binary hard-asserts that every speculative stream is token-identical
    # to autoregressive decoding and that the AASD draft's α is strictly
    # above all four baselines on every workload. The full grid (γ∈{3,5},
    # ≈ 80 s) stays out of CI — run it manually via
    #   cargo run --release -p aasd-bench --bin table1 -- table1.json
    cargo run --release -q -p aasd-bench --bin table1 -- /tmp/table1_smoke.json --smoke

    echo "==> benchmark gate: aasd-e2e builds, streams are correct and the exact counts repeat"
    # A kernel or session change that moves one token or one specdec.* count
    # fails here: every stream is checked against the autoregressive
    # reference and --check-counts compares tokens and specdec.blocks /
    # drafted / accepted between two from-scratch rounds. That compares one
    # binary with itself, so a kernel or layout bug that moves bits the same
    # way every time passes it: on the avx2 tier (the counts depend on the
    # tier's exp) they are also pinned to the values the fused-multiply-add
    # f32 tile gives the f32 target and the draft's f32 training (PR 25
    # re-based them from 863 / 4008 / 2161, the multiply-then-add tile's
    # counts under PR 22's int8 draft; PR 22 from 862 / 4005 / 2162, which
    # the f32 draft had reproduced since the benchmark landed). serve-batch
    # pins the engine's path as well: admission, vision-cache misses, the
    # draft's vision seeding and the scheduler.
    for pin in "solo-decode=blocks: 874, drafted: 4056, accepted: 2150" \
        "serve-batch=blocks: 3856, drafted: 11054, accepted: 6672"; do
        workload=${pin%%=*}
        pinned=${pin#*=}
        counts=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 3 --check-counts)
        echo "$counts"
        if grep -q "kernel_backend=avx2" <<<"$counts" &&
            [[ $(grep -c "$pinned" <<<"$counts") -ne 2 ]]; then
            echo "$workload seed 1 no longer gives { $pinned } on both runs" >&2
            exit 1
        fi
    done

    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "CI gate passed."
