#!/usr/bin/env python3
"""Bench-smoke regression gate.

Compares a freshly measured BENCH_micro.json against the committed
baseline and fails (exit 1) when a gated benchmark regressed by more than
the allowed factor. Used by CI after `cargo bench -p costream-bench`.

Usage: check_bench_regression.py BASELINE.json FRESH.json

Handles both JSON layouts: the legacy bare array and the current
{"meta": {...}, "results": [...]} object. Gated ops missing from the
baseline pass (first run after a bench is added).

Machine-class variance (different CPU generation, different core count —
the baseline JSON may have been committed from a different runner) is
handled by double-gating: each gated op is compared both on absolute
ns/iter and on its ratio to CALIBRATION_OP (a pure single-threaded
kernel bench measured in the same run, so host speed cancels out), and
the gate fails only when BOTH exceed the allowed factor. A genuinely
slower runner passes via the ratio; a faster matmul kernel (which
inflates the ratio) passes via the absolute time; a real regression of
the gated op moves both. CALIBRATION_OP itself must stay a pure
single-threaded kernel bench.

Gated ops fall in two classes:
  * single-threaded benches (train_epoch and train_backward_batch16, the
    backward pass of one 16-graph training step; the wire codec rows
    wire_encode_request_inline / wire_decode_request_inline: one ~1 KB
    inline-graph request through the JSON shim's text path, no kernels
    underneath; batch_plan_build_64, one 64-graph plan's topology
    and feature stack, no kernels either; and plan_stitch_64, the same
    plan stitched from cached per-graph fragments) — directly comparable
    across runners via the double gate;
  * product-level runner-class benches — the metrics this repo exists
    to protect. serve_throughput (8 pipelined clients against the
    batching scoring service), serve_p50_latency_1client (one
    closed-loop caller against the same service, idle otherwise) and
    front_interactive_p99 are threaded.
    optimizer_search_local (one budgeted LocalSearch placement search),
    search_score_per_candidate (what one candidate costs in its scorer)
    and ensemble_fused_batch64 are not: a search scores single-chunk
    batches inline on the caller's thread, one placement lowering and
    three member-fused passes each, and nothing fans out — but all three run
    the fused kernels, which dispatch on ISA tier. Either way the
    numbers depend on the runner class beyond what calibration cancels,
    so their allowed factors are wider, and they are gated ONLY when
    baseline and fresh run share a core count (meta.cores, which tracks
    the runner class): on a mismatch neither gate view cancels the
    effect, so the op is skipped with a note instead of failing
    spuriously.

Gated metrics (the JSON "metrics" key) are gated on every runner, except
the rates in CORE_COUNT_METRICS: the cost totals, q-errors and row shares
are functions of the seed, the same to the printed digit on one core
(`taskset -c 0 cargo bench`) and on two.
"""

import json
import sys

# op name -> maximum allowed slowdown factor vs the committed baseline.
# See the module docstring for what may be gated.
GATED = {
    "train_epoch": 1.20,
    # Backward of one 16-graph minibatch in the training pass — two
    # thirds of a training step's kernel time. A weight transposed per
    # use instead of per step, a gradient formed for a constant input, or
    # a per-op chain coming back into training reads 1.4-2.3x here.
    "train_backward_batch16": 1.30,
    # Encoding and decoding one inline `Score` request (a ~1 KB generator
    # graph) — what every never-seen graph pays at the wire before and
    # after the ~10 us the fused kernels need for it. Single-threaded and
    # kernel-free, so not in THREADED. A value tree, a per-key String or a
    # re-validating string scan coming back shows here as 2-4x.
    "wire_encode_request_inline": 1.30,
    "wire_decode_request_inline": 1.30,
    # One 64-graph BatchPlan: the topology's single linear pass plus the
    # feature restack — what every plan-cache miss and every search chunk
    # pays. Single-threaded and kernel-free, so not in THREADED. A wave
    # schedule that rescans every graph per wave, or a batch-sized table
    # allocated per wave, coming back reads ~2x here.
    "batch_plan_build_64": 1.30,
    # The same 64 graphs planned from a warm fragment cache: lookups by
    # precomputed signature, exact structure checks, the offset stitch and
    # the feature restack — what every served batch pays. Single-threaded
    # and kernel-free, so not in THREADED. A stitch that traverses the
    # graphs again, or a fragment check that re-hashes them, reads ~2x.
    "plan_stitch_64": 1.30,
    "serve_throughput": 1.30,
    # Median round trip of one closed-loop caller against an otherwise
    # idle service: a forward pass plus two thread wake-ups, since the
    # micro-batcher batches by backlog and never holds a request for
    # company. A timed wait coming back into the batching tick (the
    # removed fill probe cost ~100 us per request whatever its nominal
    # 25 us) reads 3-4x here and stays inside serve_throughput's gate.
    "serve_p50_latency_1client": 1.50,
    # One full LocalSearch placement search at a fixed scoring budget —
    # the optimizer-layer product metric (single-threaded: its batches
    # are single chunks, scored inline on the fused path).
    "optimizer_search_local": 1.30,
    # Scorer time per candidate inside that search (SearchStats'
    # score_ns / candidates_scored, fastest of 20 searches): the batch's
    # placements lowered into the search's memo and three member-fused
    # passes per ~8-candidate batch.
    "search_score_per_candidate": 1.30,
    # Member-fused k=3 ensemble inference over one cached 64-graph chunk
    # plan — the serving worker's steady-state scoring cost and the
    # number the fused-inference acceptance criterion protects.
    "ensemble_fused_batch64": 1.30,
    # Interactive-lane p99 of the network front-end's sustained
    # mixed-lane load run (pipelined wire clients against sharded
    # scoring services, with the chaos thread injecting connection
    # faults throughout) — the QoS number the priority lanes exist to
    # protect. Tail latency of a multi-connection threaded server is
    # the noisiest gated number, hence the widest factor.
    "front_interactive_p99": 1.50,
}

# Gated ops whose numbers depend on the runner class beyond what the
# calibration op cancels: threaded benches (serve_throughput,
# serve_p50_latency_1client, front_interactive_p99) scale with core
# count, and the fused kernels —
# under ensemble_fused_batch64 and, since search scores on the fused
# path, under optimizer_search_local and search_score_per_candidate —
# dispatch on ISA tier (AVX-512 vs AVX2: machine generation, which
# tracks the recorded core class), while the calibration op exercises
# only the baseline matmul kernels. These are skipped when the baseline
# and the fresh run come from runners of different widths.
THREADED = {
    "serve_throughput",
    "serve_p50_latency_1client",
    "optimizer_search_local",
    "search_score_per_candidate",
    "ensemble_fused_batch64",
    "front_interactive_p99",
}

# Pure single-threaded kernel bench used to normalize away host speed.
CALIBRATION_OP = "matmul_256x64x48_updater_in_big"

# Quality/throughput metrics (JSON "metrics" key, not timings) ->
# (maximum allowed worsening factor vs the committed baseline,
# direction). Direction is "lower" for cost-like metrics (worsening =
# fresh/base grows) and "higher" for throughput-like metrics (worsening
# = base/fresh grows), so one gate loop covers both without anyone
# inverting a number by hand. Only the metrics in CORE_COUNT_METRICS sit
# behind the core-count guard; the others are deterministic and gated on
# every runner.
GATED_METRICS = {
    # Best joint total found at the fixed budget with contended hosts
    # priced by the learned interference model (the shipping
    # configuration of the joint search).
    "joint_placement_joint_total_cost": (1.10, "lower"),
    # Median held-out q-error of the learned co-run interference model
    # against simulated co-run inflation. Lower is better; a regression
    # means the measure -> fit loop stopped tracking the simulator.
    "interference_fit_qerror": (1.10, "lower"),
    # Total cost (observed + migration, ms) of the adaptive controller
    # replaying the host-loss drift scenario — the runtime elasticity
    # loop's product metric. Deterministic: the same on one core and on
    # two.
    "replay_drift_adaptive_total_cost": (1.10, "lower"),
    # Hosts and swaps considered by the Fig. 5 rules per second of a
    # whole 256-host LocalSearch (validity by host class, rank-select
    # sampling, everything on the caller's thread) — the wide-cluster
    # search-throughput number. Higher is better; a per-host sweep, a
    # per-draw host filter or a thread spawn coming back shows here.
    "search_wide_256_candidates_per_s": (1.30, "higher"),
    # Wave rows computed under the search's memo / wave rows, over one
    # optimizer_search LocalSearch run: the share of node-state updates
    # the fused pass actually computes when each distinct state is
    # computed once per search. Deterministic for fixed inputs; a lowering
    # that silently stops merging (a key that grew a per-candidate field, a
    # fingerprint that never matches, a memo reset per batch) reads more
    # here while every bitwise test stays green.
    "search_unique_row_share": (1.10, "lower"),
}

# Gated metrics that depend on the runner class: a rate moves with the
# cores and the ISA tier under it (search_wide_256_candidates_per_s read
# 14.2 M/s pinned to one core and 13.4 M/s on two, in one sitting). Skipped
# when baseline and fresh run differ in core count. Every other gated
# metric read the same to the printed digit in both runs.
CORE_COUNT_METRICS = {"search_wide_256_candidates_per_s"}


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        meta, results = doc.get("meta", {}), doc["results"]
        metrics = doc.get("metrics", [])
    else:
        meta, results, metrics = {}, doc, []
    return meta, {r["op"]: r["ns_per_iter"] for r in results}, {m["op"]: m["value"] for m in metrics}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_meta, base, base_metrics = load(sys.argv[1])
    fresh_meta, fresh, fresh_metrics = load(sys.argv[2])

    base_cores = base_meta.get("cores")
    fresh_cores = fresh_meta.get("cores")
    cores_differ = base_cores is not None and fresh_cores is not None and base_cores != fresh_cores
    if cores_differ:
        print(
            f"note: baseline measured on {base_cores} cores, this runner has "
            f"{fresh_cores}; single-threaded gates still apply, threaded gates "
            f"({', '.join(sorted(THREADED))}) are skipped"
        )

    can_calibrate = CALIBRATION_OP in base and CALIBRATION_OP in fresh
    if not can_calibrate:
        print(f"note: calibration op {CALIBRATION_OP} missing; gating on absolute time only")

    failed = False
    for op, max_factor in GATED.items():
        if cores_differ and op in THREADED:
            print(f"{op}: skipped (threaded bench, {base_cores}-core baseline vs {fresh_cores}-core runner)")
            continue
        if op not in base:
            print(f"{op}: no baseline entry, passing (first run)")
            continue
        if op not in fresh:
            print(f"{op}: MISSING from fresh results")
            failed = True
            continue
        abs_factor = fresh[op] / base[op]
        factors = [("absolute", abs_factor)]
        if can_calibrate:
            rel_factor = (fresh[op] / fresh[CALIBRATION_OP]) / (base[op] / base[CALIBRATION_OP])
            factors.append(("calibrated", rel_factor))
        # Fail only when every view of the measurement says "regressed".
        regressed = all(f > max_factor for _, f in factors)
        detail = ", ".join(f"{name} {f:.2f}x" for name, f in factors)
        status = "REGRESSED" if regressed else "OK"
        print(f"{op}: {base[op]:.0f} ns -> {fresh[op]:.0f} ns ({detail}; limit {max_factor:.2f}x) {status}")
        if regressed:
            failed = True

    for op, (max_factor, direction) in GATED_METRICS.items():
        if cores_differ and op in CORE_COUNT_METRICS:
            print(f"{op}: skipped (runner-class rate, {base_cores}-core baseline vs {fresh_cores}-core runner)")
            continue
        if op not in base_metrics:
            print(f"{op}: no baseline metric, passing (first run)")
            continue
        if op not in fresh_metrics:
            print(f"{op}: MISSING from fresh metrics")
            failed = True
            continue
        # Worsening factor > 1 means "got worse" in either direction.
        if direction == "higher":
            factor = base_metrics[op] / fresh_metrics[op]
        else:
            factor = fresh_metrics[op] / base_metrics[op]
        regressed = factor > max_factor
        status = "REGRESSED" if regressed else "OK"
        print(
            f"{op}: {base_metrics[op]:.3f} -> {fresh_metrics[op]:.3f} "
            f"({direction} is better; worsening {factor:.2f}x, limit {max_factor:.2f}x) {status}"
        )
        if regressed:
            failed = True

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
