#!/usr/bin/env bash
# CI gate for the AASD reproduction. Run from the repo root:
#   ./ci.sh           # full gate: build, tests, fmt, clippy, rustdoc
#   ./ci.sh --quick   # tier-1 only: release build + tests
#
# The container is offline; everything here is std-only and must work
# without registry access.
set -euo pipefail
cd "$(dirname "$0")"

# `ran OP N CMD...` runs a filtered test leg, sums the `N passed` lines it
# prints and fails unless that sum is OP (`-eq`, `-ge`) N. A name filter
# that matches nothing exits 0 (the doc-test harnesses even print their own
# `0 passed`), so without the count a renamed test would turn its leg into
# a silent no-op. The leg's output goes to stderr through the inherited
# descriptor (tee's stdout) and to the capture pipe (fd 3): reopening
# `/dev/stderr` would write from offset 0 and clobber a log that stdout and
# stderr share (`./ci.sh > ci.log 2>&1`). tee is in the pipeline, so the
# copy is complete before the gate's own error line.
ran() {
    local op=$1 want=$2 out n
    shift 2
    out=$({ "$@" 2>&1 | tee /dev/fd/3 >&2; } 3>&1)
    n=$(grep -oE '[0-9]+ passed' <<<"$out" | awk '{ s += $1 } END { print s + 0 }')
    if ! [ "$n" "$op" "$want" ]; then
        echo "'$*' ran $n tests; the gate wants $op $want" >&2
        exit 1
    fi
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [[ "${1:-}" != "--quick" ]]; then
    # Tier-1 above has just run every suite once, unoptimized, on the host's
    # best kernel tier — the gradient checks, the AASD α claim, the
    # zero-allocation proof, and the nn / specdec / mm / serve crates
    # included. Nothing below repeats a (suite, tier, profile) it covered
    # except the default leg of the kernel-tier loop, kept so that one
    # labelled gate states the both-tiers contract on its own.

    echo "==> kernel-tier gate: losslessness + determinism suites, the engine suite, the forward-oracle suite, training loss pins and the vision-tower pin on the forced-scalar and host-best tiers"
    # None of the paged KV pool, the vision cache, the
    # scheduler at 1 / 2 / 4 workers (SHUTDOWN draining every in-flight
    # request), the int8 kernels or the synthetic workloads' golden stream
    # fingerprints may move a token on any dispatch tier, and the fused path
    # must track the tape oracle (`forward_full`) and emit its exact greedy
    # streams on each: run the suites pinned to the scalar reference and
    # again on the host's best backend, so a bug that only reproduces under
    # one tier cannot slip through on a machine where the other is the
    # default. Every kernel gives the same bits on both tiers, so each pin
    # holds one constant that both legs must meet: the four training pins
    # (FT-LLaMA, FT-LLaVA, DT-LLaMA + DT-LLaVA, the TD-aligned hybrid
    # distillation) hash their per-step loss bits with FNV-1a, so a
    # training-stack change that moves one float fails on either tier;
    # `encode_image_lands_in_lm_space` pins the same kind of hash over the
    # `sim_7b` vision tower's output, so a change to the tower or its
    # attention does too. The scalar leg is the slower one: its f32 tile
    # calls the runtime's `fmaf` once per term (`f32::mul_add` without `fma`
    # enabled); EXPERIMENTS.md records the leg's wall time.
    for tier in scalar default; do
        (
            if [[ $tier != default ]]; then export AASD_KERNEL=$tier; fi
            # All 23 tests of the six suites, on each tier.
            ran -ge 23 cargo test -q -p aasd --test serving_determinism --test mm_lossless \
                --test server_smoke --test int8_equivalence --test workload_determinism \
                --test fused_equivalence
            cargo test -q -p aasd-tensor
            # The engine's own suite: hit ≡ miss bit identity, the lossless
            # cell matrix, block conservation and the worst-case arena (38).
            ran -ge 38 cargo test -q -p aasd-serve
            # Exactly the five pins, on each tier.
            ran -eq 5 cargo test -q -p aasd-mm -p aasd-baselines -- \
                finetune_text_lowers_loss_on_grammar finetune_vlm_lowers_loss_on_grammar \
                distillation_recipes_run_and_stay_finite distill_hybrid_with_td_alignment_trains \
                encode_image_lands_in_lm_space
        )
    done

    echo "==> tile gate: f32 tile bitwise ≡ naive loop at every row count in both weight layouts with one rounding per term, int8 tile bitwise ≡ the scalar dot loop, every lane kernel and lane primitive bitwise across tiers, as the release build compiles them"
    # The register-tiled matmul must give every row the bits of the naive
    # loop (one row of it is `vecmat`), on every tier, over the row-major matrix and over the packed
    # panels `Linear` runs on, or verify stops reproducing decode; each term
    # must be one fused multiply-add (`tile_rounds_once_per_term_on_every_
    # tier`), which agreement alone cannot show — every path regressing to
    # multiply-then-add together would still agree; the int8
    # tile (`tile_q8_*`) must give every output the exact i32 dot at every
    # row count, or an int8 target's verify does. The aasd-tensor legs run
    # the whole suite, so the cross-tier checks of the f32 lane kernels (dot,
    # attention scores and mix, softmax with NaN rows, SwiGLU, the quantizer)
    # and of each lane primitive against its AVX2 instruction hold in the
    # code the benchmark measures, not only unoptimized. The suite
    # drives each supported tier through the explicit-backend entry; it runs
    # optimized (the code the benchmark measures — tier-1 above already ran
    # it unoptimized) with the process-global tier pinned to scalar and left
    # to the host's best, which also moves the Linear-level and
    # naive-reference checks across tiers.
    # Each leg must run at least the 55 aasd-tensor tests a release build
    # has (the 7 `tile_` ones and the two `matmul_nt_` ones — the A·Bᵀ
    # score kernel bitwise ≡ one dot per output — among them) and the 12
    # `linear_` tests it selects today.
    ran -ge 55 env AASD_KERNEL=scalar cargo test -q --release -p aasd-tensor
    ran -ge 12 env AASD_KERNEL=scalar cargo test -q --release -p aasd-nn linear_
    ran -ge 55 cargo test -q --release -p aasd-tensor
    ran -ge 12 cargo test -q --release -p aasd-nn linear_

    echo "==> avx512 tier gate: the tensor suite, the forward-oracle suite and the int8 target's suite with the process on the 512-bit tile"
    # The avx512 tier runs every product of two or more rows on its own
    # 8-row × 32-column zmm tile and everything else on the avx2 code. The
    # tensor suite checks that tile bitwise through the explicit-backend
    # entries on any host that runs it; this leg also runs the process on
    # it, so `Linear`, the fused decoder against the tape oracle and an int8
    # target's verify ≡ decode see its bits. The floors are the legs' above:
    # 55 aasd-tensor tests, and the 6 of `fused_equivalence` (2) and
    # `int8_equivalence` (4). A host that does not list avx512f cannot run
    # the tier (forcing it there is the hard error the tensor suite tests).
    if grep -qw avx512f /proc/cpuinfo; then
        ran -ge 55 env AASD_KERNEL=avx512 cargo test -q --release -p aasd-tensor
        ran -ge 6 env AASD_KERNEL=avx512 cargo test -q -p aasd \
            --test fused_equivalence --test int8_equivalence
    else
        echo "skip: /proc/cpuinfo lists no avx512f; the avx512 tier gate does not run on this host"
    fi

    echo "==> table1 smoke gate: draft-zoo ordering + per-stream losslessness + pinned counts"
    # Reduced grid (γ=3 only, short training, few held-out pairs): the
    # binary hard-asserts that every speculative stream is token-identical
    # to autoregressive decoding and that the AASD draft's α is strictly
    # above all four baselines on every workload. The full grid (γ∈{3,5},
    # ≈ 80 s) stays out of CI — run it manually via
    #   cargo run --release -p aasd-bench --bin table1 -- table1.json
    # It prints one FNV-1a fingerprint over every cell's blocks, drafted,
    # accepted and generated counts; the smoke grid's is pinned, like the
    # benchmark's counts below, so a change that moves one trained weight
    # of the five draft systems or of the grounded targets fails here.
    table1_pin="counts fingerprint: 0x79c335226d388168"
    table1=$(cargo run --release -q -p aasd-bench --bin table1 -- /tmp/table1_smoke.json --smoke)
    echo "$table1"
    if ! grep -q "$table1_pin" <<<"$table1"; then
        echo "table1 --smoke no longer prints { $table1_pin }" >&2
        exit 1
    fi

    echo "==> benchmark gate: aasd-e2e builds, streams are correct and the exact counts repeat"
    # A kernel or session change that moves one token or one specdec.* count
    # fails here: every stream is checked against the autoregressive
    # reference and --check-counts compares tokens and specdec.blocks /
    # drafted / accepted between two from-scratch rounds. That compares one
    # binary with itself, so a kernel or layout bug that moves bits the same
    # way every time passes it: the counts are also pinned, one constant per
    # pin on any host and either tier, to the values the fused-multiply-add
    # f32 tile gives the f32 target and the draft's f32 training (PR 25
    # re-based them from 863 / 4008 / 2161, the multiply-then-add tile's
    # counts under PR 22's int8 draft; PR 22 from 862 / 4005 / 2162, which
    # the f32 draft had reproduced since the benchmark landed). solo-prefill
    # pins the vision tower, connector and projector seeding on one stream.
    # serve-poisson and serve-batch pin the engine's path as well:
    # admission, vision-cache hits and misses, the draft's vision seeding
    # and the scheduler at its default worker count (one per core), so a
    # count that came to depend on threads fails here at benchmark scale.
    for pin in "solo-decode=blocks: 874, drafted: 4056, accepted: 2150" \
        "solo-prefill=blocks: 483, drafted: 634, accepted: 285" \
        "serve-poisson=blocks: 1127, drafted: 3160, accepted: 1953" \
        "serve-batch=blocks: 3856, drafted: 11054, accepted: 6672"; do
        workload=${pin%%=*}
        pinned=${pin#*=}
        counts=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 3 --check-counts)
        echo "$counts"
        if [[ $(grep -c "$pinned" <<<"$counts") -ne 2 ]]; then
            echo "$workload seed 1 no longer gives { $pinned } on both runs" >&2
            exit 1
        fi
    done

    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc -D warnings"
    # A deleted or privatised item must not leave a dangling intra-doc link
    # (or a public doc pointing at a private item) behind.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

echo "CI gate passed."
