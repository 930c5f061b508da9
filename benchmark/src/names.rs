//! The metric names and units this program emits. `BENCHMARK.json` declares
//! the same two lists; a unit test keeps them equal, and every run checks
//! what it is about to print against them.

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tok_per_s", "tok/s"),
    ("ar_tok_per_s", "tok/s"),
    ("omega", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A value
/// of 0 means the workload does not exercise that part of the layer (the
/// `serve.*` engine counters on the solo workloads).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("tensor.vecmat_us", "us"),
    ("tensor.matmul_rows4_us", "us"),
    ("tensor.matmul_rows6_us", "us"),
    ("tensor.matmul_rows32_us", "us"),
    ("tensor.rows6_over_rows1", "ratio"),
    ("tensor.attn_scores_us", "us"),
    ("tensor.vecmat_bytes", "bytes"),
    ("nn.decode1_us", "us"),
    ("nn.verify_us", "us"),
    ("nn.verify_over_decode1", "ratio"),
    ("nn.draft_decode1_us", "us"),
    ("nn.prefill_us_per_row", "us"),
    ("nn.kv_lease_us", "us"),
    ("nn.kv_truncate_us", "us"),
    ("nn.kv_blocks_peak", "count"),
    ("nn.kv_reserved_over_used", "ratio"),
    ("specdec.alpha", "ratio"),
    ("specdec.tau", "tok/block"),
    ("specdec.blocks", "count"),
    ("specdec.drafted", "count"),
    ("specdec.accepted", "count"),
    ("specdec.wasted_rows", "count"),
    ("specdec.block_us_p50", "us"),
    ("specdec.block_us_p90", "us"),
    ("specdec.draft_share_est", "ratio"),
    ("mm.vision_us", "us"),
    ("mm.prefill_vision_us", "us"),
    ("mm.prefill_text_us", "us"),
    ("mm.seed_draft_us", "us"),
    ("mm.draft_prefill_us", "us"),
    ("mm.prefill_share", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.tick_us_p50", "us"),
    ("serve.tick_us_p90", "us"),
    ("serve.ticks", "count"),
    ("serve.sessions_per_tick", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.vision_hits", "count"),
    ("serve.vision_misses", "count"),
    ("serve.vision_hit_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.busy_frac", "ratio"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p90_ms", "ms"),
    ("serve.req_iqm_ms", "ms"),
    ("serve.ttft_p50_ms", "ms"),
    ("serve.ttft_p90_ms", "ms"),
    ("serve.ttft_iqm_ms", "ms"),
    ("serve.tpot_mean_ms", "ms"),
    ("serve.proto_parse_us", "us"),
    ("serve.proto_poll_us", "us"),
    ("serve.proto_frame_us", "us"),
    ("setup.ground_s", "s"),
    ("setup.distill_s", "s"),
    ("setup.samples_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.span_count", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every object listed under `key` in
    /// `BENCHMARK.json`; the unit is empty where none is given.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let quoted = |object: &str, field: &str| -> String {
            object
                .split(&format!("\"{field}\":"))
                .nth(1)
                .and_then(|rest| rest.split('"').nth(1))
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|object| (quoted(object, "name"), quoted(object, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_names_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = crate::WORKLOADS.iter().map(|w| (w.name, "")).collect();
        assert_eq!(declared(&json, "workloads"), owned(&workloads));
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER).chain(&workloads) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name:?}"
            );
        }
    }
}
