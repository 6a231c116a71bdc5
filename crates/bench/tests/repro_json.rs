//! Smoke tests pinning the machine-readable schema of `repro --json`.
//!
//! Downstream tooling (plot scripts, CI dashboards) parses this output;
//! these tests run the actual binary and assert the JSON document shape
//! for the `fig5`, `geometry`, `scenarios`, `sharding`,
//! `banking`, `ensemble` and `table1` subcommands, so schema drift is
//! caught at
//! test time rather than by consumers. The `scenarios` test pins the PR-4 acceptance bar:
//! every registered scenario (≥ 4: TGV, cavity, shear layer, pulse) must
//! pass serial-vs-multi-device equivalence at ≤ 1e-12 relative plus its
//! per-scenario invariant checks. The `sharding` test pins the PR-5
//! acceptance bar — the sharded executor must be bitwise identical to
//! the serial reference and across all swept shard counts on every
//! registered scenario, with per-shard load-imbalance and
//! `emulate_plan` cycle/II quotes attached — and the PR-6 bar:
//! every cell reports contiguous and graph-partitioned strategies side
//! by side, both bitwise identical, `halo_fraction` a true `0 ..= 1`
//! unique-node fraction, and the partitioned halo never above the
//! contiguous one at ≥ 4 shards. The
//! The `sharding` test also pins the PR-8 bar: the study's MultiDevice
//! overlap sweep must report per-(scenario, devices) phase timings with
//! every cell bitwise identical to the serial reference, positive
//! emulated overlap efficiency on ≥ 4 devices, a consistent
//! compute-bound vs comm-bound classification, and an explicit skip log
//! for any device count that did not run as its own cell. The
//! `geometry` test also pins the PR-3 acceptance bar: the cached+fused
//! RHS path must beat the seed recompute+split path by ≥1.5× on the TGV
//! n=12 viscous benchmark (hard-enforced when `REPRO_PERF_GATE` is set —
//! the CI `repro-artifacts` job gates the release build — and a warning
//! otherwise, since wall-clock ratios are noisy on loaded runners) — and
//! the PR-9 bar: the geometry study's sum-factored vs full-matrix order
//! ladder spans p = 1..4, pins the exact O(p⁴)/O(p⁶) flop models, holds
//! both kernel paths to ≤ 1e-12 mutual agreement with per-path bitwise
//! multi-device-vs-serial flags, and (under `REPRO_PERF_GATE`) requires the
//! factored path ahead of the dense path from p = 3. The `ensemble`
//! test pins the PR-7 acceptance bar: the 8-member same-mesh sweep must
//! share its [`fem_mesh::SharedMeshContext`] at a measured ≥ 2× memory
//! savings (in fact exactly 8×), serve every registry scenario under
//! three backends from two shared contexts with all invariants passing.
//! The `banking` test pins its own acceptance bar: the
//! banked-memory frontier study must show the optimized bank assignment
//! strictly beating round-robin on DES makespan at 8 shards on the
//! 32-bank HBM2 system for ≥ 2 registry scenarios, and every 1-bank
//! degenerate row must reproduce the unbanked flat quote
//! cycle-for-cycle.

use std::process::Command;

fn repro_json(subcommand: &str) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([subcommand, "--json"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {subcommand} --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str::<serde_json::Value>(&stdout)
        .unwrap_or_else(|e| panic!("repro {subcommand} --json is not valid JSON: {e}\n{stdout}"))
}

#[test]
fn fig5_json_schema() {
    let doc = repro_json("fig5");

    // Top-level summary fields.
    for key in [
        "avg_speedup",
        "growth_1p4_to_4p2_proposed",
        "growth_1p4_to_4p2_vitis",
        "paper_avg_speedup",
        "paper_growth",
    ] {
        assert!(
            doc[key].as_f64().is_some(),
            "fig5 missing numeric field `{key}`"
        );
    }

    // Per-size rows: one per entry of FIG5_MESH_SIZES (5K .. 4.2M).
    let rows = doc["rows"].as_array().expect("fig5 `rows` is an array");
    assert_eq!(rows.len(), 6, "fig5 should report 6 mesh sizes");
    for row in rows {
        assert!(row["label"].as_str().is_some());
        assert!(row["nodes"].as_u64().is_some());
        for key in [
            "proposed_seconds",
            "vitis_seconds",
            "speedup",
            "proposed_fmax",
            "vitis_fmax",
        ] {
            let v = row[key]
                .as_f64()
                .unwrap_or_else(|| panic!("fig5 row missing numeric field `{key}`: {row:?}"));
            assert!(v.is_finite() && v > 0.0, "fig5 `{key}` not positive: {v}");
        }
    }

    // Sanity: the modeled speedup must actually favor the proposed design.
    assert!(doc["avg_speedup"].as_f64().unwrap() > 1.0);
}

#[test]
fn geometry_json_schema() {
    let doc = repro_json("geometry");

    assert!(doc["threads"].as_u64().is_some(), "missing `threads`");

    // Three paths per mesh edge, in the optimization-ladder order.
    let rows = doc["rows"].as_array().expect("`rows` is an array");
    assert_eq!(rows.len() % 3, 0, "rows come in path triples");
    assert!(!rows.is_empty());
    for triple in rows.chunks(3) {
        assert_eq!(triple[0]["path"].as_str(), Some("recompute+split"));
        assert_eq!(triple[1]["path"].as_str(), Some("cached+split"));
        assert_eq!(triple[2]["path"].as_str(), Some("cached+fused"));
        for r in triple {
            assert!(r["edge"].as_u64().is_some());
            assert!(r["nodes"].as_u64().is_some());
            let ms = r["millis_per_assembly"].as_f64().expect("numeric time");
            assert!(ms > 0.0, "non-positive time {ms}");
            assert!(r["speedup_vs_seed"].as_f64().expect("speedup") > 0.0);
            // Every path must agree with the seed residual to rounding.
            let err = r["max_rel_error_vs_seed"].as_f64().expect("rel err");
            assert!(err < 1e-12, "path deviates from seed: {err}");
        }
    }

    // Per-edge summaries: cache footprint and ladder speedups.
    let summaries = doc["summaries"].as_array().expect("`summaries` array");
    assert_eq!(summaries.len() * 3, rows.len());
    let mut saw_edge_12 = false;
    for s in summaries {
        let edge = s["edge"].as_u64().expect("edge");
        assert!(s["nodes"].as_u64().is_some());
        let mem = s["cache_memory_bytes"].as_u64().expect("cache bytes");
        // 80 B per element node (Mat3 + f64).
        assert_eq!(mem, (edge * edge * edge) * 8 * 80);
        for key in [
            "cached_over_recompute",
            "fused_over_split",
            "cached_fused_over_seed",
        ] {
            let v = s[key].as_f64().unwrap_or_else(|| panic!("missing {key}"));
            assert!(v.is_finite() && v > 0.0, "`{key}` not positive: {v}");
        }
        if edge == 12 {
            saw_edge_12 = true;
            // Acceptance: cached+fused beats the seed recompute+split
            // path by ≥1.5× on the TGV n=12 viscous benchmark. Wall-clock
            // thresholds are flaky on loaded or unoptimized runners, so
            // the hard assert is opt-in (REPRO_PERF_GATE=1; the CI
            // repro-artifacts job enforces it on the release build).
            let total = s["cached_fused_over_seed"].as_f64().unwrap();
            if std::env::var("REPRO_PERF_GATE").is_ok() {
                assert!(
                    total >= 1.5,
                    "cached+fused only {total:.2}x over seed at n=12"
                );
            } else if total < 1.5 {
                eprintln!(
                    "warning: cached+fused only {total:.2}x over seed at n=12 \
                     (not enforced without REPRO_PERF_GATE)"
                );
            }
        }
    }
    assert!(saw_edge_12, "study must include the TGV n=12 mesh");

    // PR-9: the sum-factored vs full-matrix order ladder. One rung per
    // polynomial order 1..=4, each carrying both kernel-path timings,
    // the exact flop model, a ≤1e-12 cross-path agreement bound, and
    // per-path multidevice(2, partitioned)-vs-serial bitwise flags.
    let ladder = doc["order_ladder"].as_array().expect("`order_ladder`");
    let orders: Vec<u64> = ladder
        .iter()
        .map(|r| r["order"].as_u64().expect("order"))
        .collect();
    assert_eq!(orders, vec![1, 2, 3, 4], "ladder rungs drifted");
    for r in ladder {
        let p = r["order"].as_u64().unwrap();
        let n = p + 1;
        let npe = n * n * n;
        assert_eq!(r["nodes_per_element"].as_u64(), Some(npe), "p={p}");
        assert!(r["elements"].as_u64().expect("elements") > 0);
        for key in ["millis_full_matrix", "millis_sum_factored"] {
            let ms = r[key].as_f64().unwrap_or_else(|| panic!("missing {key}"));
            assert!(ms > 0.0, "p={p}: `{key}` not positive: {ms}");
        }
        assert!(r["factored_speedup"].as_f64().expect("speedup") > 0.0);
        // The flop model is exact: factored 90·npe + 30·n⁴ (three 1D
        // sweeps), full-matrix 90·npe + 30·npe² (dense per direction).
        assert_eq!(
            r["factored_divergence_flops"].as_u64(),
            Some(90 * npe + 30 * n.pow(4)),
            "p={p}: factored flop model drifted"
        );
        assert_eq!(
            r["full_matrix_divergence_flops"].as_u64(),
            Some(90 * npe + 30 * npe * npe),
            "p={p}: full-matrix flop model drifted"
        );
        // The multi-device executor is bitwise serial on both paths ...
        for key in [
            "factored_bitwise_vs_reference",
            "full_matrix_bitwise_vs_reference",
        ] {
            assert_eq!(r[key].as_bool(), Some(true), "p={p}: `{key}`");
        }
        // ... and agree with each other to rounding.
        let err = r["max_rel_error_full_vs_factored"].as_f64().expect("err");
        assert!(err <= 1e-12, "p={p}: paths diverge: {err}");
        // Acceptance: the factored path is ahead of the dense reference
        // from p=3 up. Wall-clock gated like the n=12 ladder above.
        if p >= 3 {
            let speedup = r["factored_speedup"].as_f64().unwrap();
            if std::env::var("REPRO_PERF_GATE").is_ok() {
                assert!(
                    speedup >= 1.0,
                    "sum-factored only {speedup:.2}x over full-matrix at p={p}"
                );
            } else if speedup < 1.0 {
                eprintln!(
                    "warning: sum-factored only {speedup:.2}x over full-matrix at \
                     p={p} (not enforced without REPRO_PERF_GATE)"
                );
            }
        }
    }
    // The crossover marker is derived from the rungs and must land by
    // p=3 under the perf gate.
    let crossover = doc["factored_crossover_order"].as_u64();
    if std::env::var("REPRO_PERF_GATE").is_ok() {
        let p = crossover.expect("factored path never overtook full-matrix");
        assert!(p <= 3, "factored crossover only at p={p}");
    }
}

#[test]
fn scenarios_json_schema() {
    let doc = repro_json("scenarios");

    assert!(doc["edge"].as_u64().is_some(), "missing `edge`");
    assert!(doc["steps"].as_u64().is_some(), "missing `steps`");
    assert!(doc["threads"].as_u64().is_some(), "missing `threads`");

    // Three backend rows per scenario, in a fixed order, every one of
    // them within the 1e-12 equivalence bar.
    let rows = doc["rows"].as_array().expect("`rows` is an array");
    assert_eq!(rows.len() % 3, 0, "rows come in backend triples");
    for triple in rows.chunks(3) {
        assert_eq!(triple[0]["strategy"].as_str(), Some("serial"));
        assert_eq!(
            triple[1]["strategy"].as_str(),
            Some("multidevice(2, partitioned)")
        );
        assert_eq!(
            triple[2]["strategy"].as_str(),
            Some("multidevice(4, partitioned)")
        );
        for r in triple {
            assert!(r["scenario"].as_str().is_some());
            assert!(r["steps"].as_u64().is_some());
            let dev = r["max_rel_dev_vs_serial"].as_f64().expect("numeric dev");
            assert!(
                dev <= 1e-12,
                "{:?}/{:?} deviates from serial: {dev}",
                r["scenario"],
                r["strategy"]
            );
        }
    }

    // Acceptance: at least the four canonical scenarios, each with its
    // strategies agreeing and its invariants passing.
    let summaries = doc["summaries"].as_array().expect("`summaries` array");
    assert!(summaries.len() >= 4, "fewer than 4 scenarios");
    assert_eq!(summaries.len() * 3, rows.len());
    for name in [
        "taylor-green-vortex",
        "lid-driven-cavity",
        "double-shear-layer",
        "acoustic-pulse",
    ] {
        assert!(
            summaries
                .iter()
                .any(|s| s["scenario"].as_str() == Some(name)),
            "scenario `{name}` missing"
        );
    }
    for s in summaries {
        let name = s["scenario"].as_str().expect("scenario name");
        assert!(s["description"].as_str().is_some());
        assert!(s["nodes"].as_u64().is_some());
        assert!(s["elements"].as_u64().is_some());
        assert!(s["dirichlet_nodes"].as_u64().is_some());
        assert!(s["dt"].as_f64().expect("dt") > 0.0);
        assert_eq!(s["strategies_agree"].as_bool(), Some(true), "{name}");
        assert_eq!(s["invariants_pass"].as_bool(), Some(true), "{name}");
        let invariants = s["invariants"].as_array().expect("invariants array");
        assert!(!invariants.is_empty(), "{name}: no invariants");
        for c in invariants {
            assert!(c["name"].as_str().is_some());
            assert!(c["value"].as_f64().is_some());
            assert!(c["bound"].as_f64().is_some());
            assert_eq!(c["passed"].as_bool(), Some(true), "{name}: {:?}", c["name"]);
        }
        // The per-scenario accelerator workload quote.
        let w = &s["workload"];
        for key in ["rkl_flops_per_stage", "rkl_bytes_per_stage"] {
            assert!(w[key].as_u64().expect(key) > 0, "{name}: `{key}`");
        }
        for key in ["arithmetic_intensity", "ddr_bound_gflops"] {
            let v = w[key].as_f64().unwrap_or_else(|| panic!("missing {key}"));
            assert!(v > 0.0, "{name}: `{key}` not positive: {v}");
        }
    }
    // The cavity is the only wall-bounded entry.
    let cavity = summaries
        .iter()
        .find(|s| s["scenario"].as_str() == Some("lid-driven-cavity"))
        .unwrap();
    assert!(cavity["dirichlet_nodes"].as_u64().unwrap() > 0);
}

#[test]
fn sharding_json_schema() {
    let doc = repro_json("sharding");

    assert!(doc["edge"].as_u64().is_some(), "missing `edge`");
    assert!(doc["steps"].as_u64().is_some(), "missing `steps`");
    assert!(doc["threads"].as_u64().is_some(), "missing `threads`");
    // PR-10: the study names the memory system that priced its quotes.
    assert_eq!(doc["memory_system"].as_str(), Some("u200-ddr4"));
    let counts: Vec<u64> = doc["shard_counts"]
        .as_array()
        .expect("`shard_counts` is an array")
        .iter()
        .map(|c| c.as_u64().expect("shard count"))
        .collect();
    assert_eq!(counts, vec![1, 2, 4, 8], "sweep drifted");

    // One summary per (scenario, effective shard count) — no duplicate
    // labels — and the four canonical scenarios must all be swept.
    let summaries = doc["summaries"].as_array().expect("`summaries` array");
    assert_eq!(summaries.len() % counts.len(), 0);
    for name in [
        "taylor-green-vortex",
        "lid-driven-cavity",
        "double-shear-layer",
        "acoustic-pulse",
    ] {
        let cells: Vec<u64> = summaries
            .iter()
            .filter(|s| s["scenario"].as_str() == Some(name))
            .map(|s| s["shard_count"].as_u64().expect("shard_count"))
            .collect();
        assert_eq!(
            cells.len(),
            counts.len(),
            "scenario `{name}` not fully swept"
        );
        let mut dedup = cells.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), cells.len(), "{name}: duplicate shard counts");
    }

    let rows = doc["rows"].as_array().expect("`rows` is an array");
    for s in summaries {
        let name = s["scenario"].as_str().expect("scenario name");
        let count = s["shard_count"].as_u64().expect("shard_count");
        let elements = s["elements"].as_u64().expect("elements");
        let nodes = s["nodes"].as_u64().expect("nodes");
        assert!(s["requested_shards"].as_u64().expect("requested") >= count);
        assert!(count <= elements, "{name}: count not clamped");
        assert!(s["ddr_bound_gflops"].as_f64().expect("roofline") > 0.0);

        for strategy in ["contiguous", "partitioned"] {
            let cell = &s[strategy];
            assert_eq!(cell["strategy"].as_str(), Some(strategy), "{name} ×{count}");

            // Acceptance: both strategies' trajectories are bitwise
            // identical to the serial reference AND across shard counts
            // (⇒ ≤1e-12 trivially).
            assert_eq!(
                cell["bitwise_vs_reference"].as_bool(),
                Some(true),
                "{name} {strategy}"
            );
            assert_eq!(
                cell["bitwise_across_shard_counts"].as_bool(),
                Some(true),
                "{name} {strategy}"
            );
            let dev = cell["max_rel_dev_vs_reference"].as_f64().expect("dev");
            assert!(dev <= 1e-12, "{name} ×{count} {strategy}: dev {dev}");
            let imbalance = cell["load_imbalance"].as_f64().expect("load_imbalance");
            assert!((1.0..2.0).contains(&imbalance), "{name}: {imbalance}");
            assert!(cell["element_imbalance"].as_f64().expect("elem imb") >= 1.0);
            // halo_fraction is a true fraction of unique halo nodes.
            let halo = cell["halo_fraction"].as_f64().expect("halo_fraction");
            assert!((0.0..=1.0).contains(&halo), "{name} {strategy}: {halo}");
            let entries = cell["reduction_entries"].as_u64().expect("entries");
            assert_eq!(entries == 0, halo == 0.0, "{name} {strategy}");
            assert!(cell["total_bytes_in"].as_u64().expect("bytes_in") > 0);
            assert!(cell["total_bytes_out"].as_u64().expect("bytes_out") > 0);
            assert!(
                cell["max_shard_makespan_cycles"]
                    .as_u64()
                    .expect("makespan")
                    > 0
            );
            assert!(cell["emulated_ii_worst"].as_f64().expect("worst II") > 0.0);

            // The cell's per-shard rows: cover every element exactly
            // once, owned-node sets complete, each with an
            // `emulate_plan` cycle/II quote.
            let cell_rows: Vec<&serde_json::Value> = rows
                .iter()
                .filter(|r| {
                    r["scenario"].as_str() == Some(name)
                        && r["shard_count"].as_u64() == Some(count)
                        && r["strategy"].as_str() == Some(strategy)
                })
                .collect();
            assert_eq!(cell_rows.len() as u64, count, "{name} ×{count} {strategy}");
            let covered: u64 = cell_rows
                .iter()
                .map(|r| r["elements"].as_u64().unwrap())
                .sum();
            assert_eq!(covered, elements, "{name} ×{count}: elements dropped");
            let owned: u64 = cell_rows
                .iter()
                .map(|r| r["owned_nodes"].as_u64().unwrap())
                .sum();
            assert_eq!(owned, nodes, "{name} ×{count}: owned sets incomplete");
            for r in &cell_rows {
                assert!(r["shard"].as_u64().is_some());
                assert!(r["halo_nodes"].as_u64().is_some());
                assert!(r["bytes_in"].as_u64().expect("shard bytes_in") > 0);
                assert!(r["bytes_out"].as_u64().expect("shard bytes_out") > 0);
                assert!(r["emulated_makespan_cycles"].as_u64().expect("makespan") > 0);
                assert!(r["emulated_ii"].as_f64().expect("emulated II") > 0.0);
                assert!(r["bottleneck_ii"].as_u64().expect("bottleneck II") > 0);
            }
        }

        // The tentpole acceptance gate: at ≥ 4 shards the graph
        // partition's halo fraction never exceeds the contiguous one.
        if count >= 4 {
            let c = s["contiguous"]["halo_fraction"].as_f64().unwrap();
            let p = s["partitioned"]["halo_fraction"].as_f64().unwrap();
            assert!(
                p <= c,
                "{name} ×{count}: partitioned halo {p} > contiguous {c}"
            );
        }
    }

    // PR-8: the MultiDevice overlap sweep. Same counts, both
    // strategies, per-(scenario, devices) phase timings.
    let dev_counts: Vec<u64> = doc["device_counts"]
        .as_array()
        .expect("`device_counts` is an array")
        .iter()
        .map(|c| c.as_u64().expect("device count"))
        .collect();
    assert_eq!(dev_counts, vec![1, 2, 4, 8], "device sweep drifted");
    let cells = doc["overlap_cells"].as_array().expect("`overlap_cells`");
    // 4 scenarios × 4 effective counts × 2 strategies on the 6³ meshes.
    assert_eq!(cells.len(), 4 * dev_counts.len() * 2, "overlap coverage");
    let overlap_rows = doc["overlap_rows"].as_array().expect("`overlap_rows`");
    for c in cells {
        let name = c["scenario"].as_str().expect("scenario");
        let devices = c["device_count"].as_u64().expect("device_count");
        let strategy = c["strategy"].as_str().expect("strategy");
        assert!(c["requested_devices"].as_u64().expect("requested") >= devices);

        // Acceptance: the overlapped exchange is bitwise identical to
        // the serial reference at every device count and strategy.
        assert_eq!(
            c["bitwise_vs_reference"].as_bool(),
            Some(true),
            "{name} ×{devices} {strategy}"
        );
        assert!(c["max_rel_dev_vs_reference"].as_f64().expect("dev") <= 1e-12);

        let frontier = c["frontier_cycles_total"].as_u64().expect("frontier");
        let interior = c["interior_cycles_total"].as_u64().expect("interior");
        let exchange = c["exchange_cycles_total"].as_u64().expect("exchange");
        let exposed = c["exposed_cycles_total"].as_u64().expect("exposed");
        assert!(frontier > 0 && interior > 0, "{name} ×{devices}");
        assert!(c["max_device_makespan_cycles"].as_u64().expect("makespan") > 0);
        let eff = c["emulated_overlap_efficiency"].as_f64().expect("eff");
        assert!((0.0..=1.0).contains(&eff), "{name} ×{devices}: {eff}");
        let measured_eff = c["measured_overlap_efficiency"].as_f64().expect("m-eff");
        assert!((0.0..=1.0).contains(&measured_eff));
        for key in [
            "measured_frontier_s",
            "measured_interior_s",
            "measured_wait_s",
            "measured_apply_s",
        ] {
            assert!(c[key].as_f64().expect(key) >= 0.0, "{name}: `{key}`");
        }

        // The classification is derived, not free-form: comm-bound iff
        // the exposed link cycles exceed the interior sweep.
        let bound = c["bound"].as_str().expect("bound");
        assert_eq!(
            bound,
            if exposed > interior {
                "comm-bound"
            } else {
                "compute-bound"
            },
            "{name} ×{devices} {strategy}"
        );

        if devices == 1 {
            assert_eq!(exchange, 0, "{name}: solo device crossed a link");
            assert_eq!(exposed, 0);
            assert_eq!(eff, 1.0);
            assert_eq!(bound, "compute-bound");
        } else {
            assert!(exchange > 0, "{name} ×{devices}: no link traffic");
            assert!(c["halo_records_total"].as_u64().expect("records") > 0);
        }
        // Acceptance: measurable overlap on ≥ 4 devices — the interior
        // sweep hides part of the halo exchange.
        if devices >= 4 {
            assert!(
                eff > 0.0,
                "{name} ×{devices} {strategy}: overlap efficiency {eff}"
            );
        }

        // Per-device rows: every element assembled exactly once, as
        // either frontier or interior.
        let cell_rows: Vec<&serde_json::Value> = overlap_rows
            .iter()
            .filter(|r| {
                r["scenario"].as_str() == Some(name)
                    && r["device_count"].as_u64() == Some(devices)
                    && r["strategy"].as_str() == Some(strategy)
            })
            .collect();
        assert_eq!(cell_rows.len() as u64, devices, "{name} ×{devices}");
        let covered: u64 = cell_rows
            .iter()
            .map(|r| {
                r["frontier_elements"].as_u64().unwrap() + r["interior_elements"].as_u64().unwrap()
            })
            .sum();
        assert_eq!(covered, 6 * 6 * 6, "{name} ×{devices}: elements dropped");
        for r in &cell_rows {
            assert!(r["device"].as_u64().is_some());
            assert!(r["neighbors"].as_u64().is_some());
            let sent = r["halo_records_sent"].as_u64().expect("records sent");
            assert_eq!(r["halo_bytes_sent"].as_u64(), Some(48 * sent));
            let makespan = r["makespan_cycles"].as_u64().expect("makespan");
            assert!(makespan >= r["exposed_cycles"].as_u64().unwrap());
            assert!(makespan >= r["apply_cycles"].as_u64().unwrap());
        }
    }

    // No silent truncation: the default sweep fits the 6³ meshes, so
    // the skip log must exist and be empty (entries, when present,
    // carry scenario/requested/effective/reason).
    let skipped = doc["skipped_device_sweeps"]
        .as_array()
        .expect("`skipped_device_sweeps`");
    assert!(
        skipped.is_empty(),
        "default sweep should run every cell: {skipped:?}"
    );
}

#[test]
fn banking_json_schema() {
    let doc = repro_json("banking");

    assert!(doc["edge"].as_u64().is_some(), "missing `edge`");
    let counts: Vec<u64> = doc["shard_counts"]
        .as_array()
        .expect("`shard_counts` is an array")
        .iter()
        .map(|c| c.as_u64().expect("shard count"))
        .collect();
    assert_eq!(counts, vec![1, 2, 4, 8], "sweep drifted");
    let batches = doc["batch_sizes"].as_array().expect("`batch_sizes`");
    assert!(!batches.is_empty());
    let systems: Vec<&str> = doc["systems"]
        .as_array()
        .expect("`systems`")
        .iter()
        .map(|s| s.as_str().expect("system name"))
        .collect();
    assert_eq!(systems, vec!["u200-ddr4", "u280-hbm2"]);
    let policies: Vec<&str> = doc["policies"]
        .as_array()
        .expect("`policies`")
        .iter()
        .map(|p| p.as_str().expect("policy name"))
        .collect();
    assert_eq!(policies, vec!["round-robin", "greedy", "optimized"]);

    // Full cross product: 4 scenarios × 4 counts × batches × 2 systems
    // × 3 policies on the 6³ meshes (216 elements, nothing clamps).
    let rows = doc["rows"].as_array().expect("`rows` is an array");
    assert_eq!(
        rows.len(),
        4 * counts.len() * batches.len() * systems.len() * policies.len(),
        "banking sweep coverage drifted"
    );
    for r in rows {
        let name = r["scenario"].as_str().expect("scenario");
        let banks = r["banks"].as_u64().expect("banks");
        assert!(r["shard_count"].as_u64().expect("shard_count") >= 1);
        assert!(r["batch_elements"].as_u64().is_some());
        assert!(r["banks_used"].as_u64().expect("banks_used") <= banks);
        assert_eq!(r["capacity_respected"].as_bool(), Some(true), "{name}");
        assert!(r["modeled_makespan_cycles"].as_u64().expect("modeled") > 0);
        let emulated = r["emulated_makespan_cycles"].as_u64().expect("emulated");
        assert!(emulated > 0, "{name}");
    }

    // Acceptance gate: at 8 shards on the 32-bank HBM system the
    // optimized assignment strictly beats round-robin on DES makespan
    // for at least two registry scenarios.
    let wins = doc["hbm_win_scenarios"]
        .as_array()
        .expect("`hbm_win_scenarios`");
    assert!(
        wins.len() >= 2,
        "optimized beats round-robin in only {} scenarios: {wins:?}",
        wins.len()
    );
    for name in [
        "taylor-green-vortex",
        "lid-driven-cavity",
        "double-shear-layer",
        "acoustic-pulse",
    ] {
        let cycles = |policy: &str| -> u64 {
            rows.iter()
                .filter(|r| {
                    r["scenario"].as_str() == Some(name)
                        && r["shard_count"].as_u64() == Some(8)
                        && r["memory_system"].as_str() == Some("u280-hbm2")
                        && r["policy"].as_str() == Some(policy)
                })
                .map(|r| r["emulated_makespan_cycles"].as_u64().unwrap())
                .max()
                .unwrap_or_else(|| panic!("{name}: no 8-shard HBM rows"))
        };
        assert!(
            cycles("optimized") <= cycles("round-robin"),
            "{name}: optimized {} worse than round-robin {}",
            cycles("optimized"),
            cycles("round-robin")
        );
    }

    // The Pareto frontier exists, ranks only multi-bank systems, and is
    // truly non-dominated per cell.
    let frontier = doc["frontier"].as_array().expect("`frontier`");
    assert!(!frontier.is_empty());
    for p in frontier {
        assert!(p["banks"].as_u64().expect("banks") >= 2);
        assert!(p["aggregate_bw_gbps"].as_f64().expect("bw") > 0.0);
        let p_make = p["emulated_makespan_cycles"].as_u64().expect("makespan");
        for q in frontier {
            let same_cell = p["scenario"] == q["scenario"]
                && p["shard_count"] == q["shard_count"]
                && p["batch_elements"] == q["batch_elements"];
            if same_cell && !std::ptr::eq(p, q) {
                let dominates = q["banks"].as_u64().unwrap() <= p["banks"].as_u64().unwrap()
                    && q["emulated_makespan_cycles"].as_u64().unwrap() < p_make;
                assert!(!dominates, "{q:?} dominates frontier point {p:?}");
            }
        }
    }
}

#[test]
fn ensemble_json_schema() {
    let doc = repro_json("ensemble");

    assert!(doc["edge"].as_u64().is_some(), "missing `edge`");
    assert!(doc["steps"].as_u64().is_some(), "missing `steps`");
    assert!(doc["threads"].as_u64().is_some(), "missing `threads`");
    let counts: Vec<u64> = doc["member_counts"]
        .as_array()
        .expect("`member_counts` is an array")
        .iter()
        .map(|c| c.as_u64().expect("member count"))
        .collect();
    assert_eq!(counts, vec![1, 2, 4, 8], "member sweep drifted");

    // Throughput sweep: one row per member count, every member passing,
    // with the same-mesh savings ratio equal to the member count (N
    // members on one shared context hold its bytes exactly once).
    let scaling = doc["scaling"].as_array().expect("`scaling` is an array");
    assert_eq!(scaling.len(), counts.len());
    for (row, &members) in scaling.iter().zip(&counts) {
        assert_eq!(row["members"].as_u64(), Some(members));
        assert!(row["workers"].as_u64().expect("workers") >= 1);
        assert_eq!(row["contexts"].as_u64(), Some(1), "same-mesh sweep split");
        assert!(row["wall_s"].as_f64().expect("wall_s") >= 0.0);
        assert!(
            row["members_per_sec"].as_f64().expect("members_per_sec") > 0.0,
            "throughput must be positive"
        );
        let shared = row["shared_context_bytes"].as_u64().expect("shared bytes");
        let unshared = row["unshared_context_bytes"]
            .as_u64()
            .expect("unshared bytes");
        assert!(shared > 0);
        assert_eq!(unshared, shared * members, "memory accounting drifted");
        let ratio = row["memory_savings_ratio"].as_f64().expect("ratio");
        assert!(
            (ratio - members as f64).abs() < 1e-9,
            "savings ratio {ratio} != member count {members}"
        );
        assert_eq!(row["all_passed"].as_bool(), Some(true), "×{members}");
    }

    // Acceptance: the 8-member same-mesh sweep shares ≥ 2× memory.
    assert_eq!(doc["same_mesh_members"].as_u64(), Some(8));
    let savings = doc["same_mesh_savings_ratio"].as_f64().expect("savings");
    assert!(savings >= 2.0, "8-member sweep saved only {savings}x");

    // Registry × backend matrix: every scenario under the serial
    // reference and two multidevice decompositions, grouped onto exactly
    // two shared contexts (the periodic box and the walled cavity box).
    assert_eq!(doc["backend_contexts"].as_u64(), Some(2));
    let rows = doc["backend_rows"].as_array().expect("`backend_rows`");
    assert_eq!(rows.len() % 3, 0, "rows come in backend triples");
    for name in [
        "taylor-green-vortex",
        "lid-driven-cavity",
        "double-shear-layer",
        "acoustic-pulse",
    ] {
        let backends: Vec<&str> = rows
            .iter()
            .filter(|r| r["scenario"].as_str() == Some(name))
            .map(|r| r["backend"].as_str().expect("backend name"))
            .collect();
        assert_eq!(backends.len(), 3, "scenario `{name}` not fully served");
        assert!(backends.contains(&"reference(serial)"), "{backends:?}");
        assert!(
            backends.contains(&"multidevice(4, partitioned)"),
            "{backends:?}"
        );
        assert!(
            backends.contains(&"multidevice(2, contiguous)"),
            "{backends:?}"
        );
    }
    for r in rows {
        let name = r["scenario"].as_str().expect("scenario");
        assert!(r["dt"].as_f64().expect("dt") > 0.0, "{name}");
        assert!(r["kinetic_energy"].as_f64().expect("KE") > 0.0, "{name}");
        assert!(r["enstrophy"].as_f64().is_some(), "{name}");
        assert!(r["wall_ms"].as_f64().expect("wall_ms") >= 0.0, "{name}");
        assert_eq!(r["invariants_passed"].as_bool(), Some(true), "{name}");
    }
}

#[test]
fn table1_json_schema() {
    let doc = repro_json("table1");

    for design in ["vitis", "proposed"] {
        let row = &doc[design];
        assert!(
            row["design"].as_str().is_some(),
            "table1 `{design}` missing `design` name"
        );
        let fmax = row["fmax_mhz"].as_f64().expect("numeric fmax_mhz");
        assert!(fmax > 0.0);
        let util = row["utilization_percent"]
            .as_array()
            .expect("utilization_percent array");
        // Table I column order: FF / LUT / BRAM / URAM / DSP.
        assert_eq!(util.len(), 5);
        for u in util {
            let pct = u.as_f64().expect("numeric utilization");
            assert!(
                (0.0..=100.0).contains(&pct),
                "utilization out of range: {pct}"
            );
        }
    }

    for key in ["paper_vitis", "paper_proposed"] {
        let arr = doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("missing `{key}`"));
        assert_eq!(arr.len(), 5);
    }
}
