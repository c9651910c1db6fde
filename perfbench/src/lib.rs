//! # perfbench — host-time and virtual-time benchmark of the simulator
//!
//! One command runs one workload from a single process and a single
//! thread, checks its outputs, and prints every metric by name with its
//! unit. Two clocks appear side by side, as in CXLMemSim's evaluation of
//! a CXL simulator:
//!
//! * **host** metrics — the simulator's own wall-clock cost (set-up
//!   time, simulated invocations per host second, ns per simulated
//!   access or engine event, per-call host latency, peak RSS). These
//!   vary run to run.
//! * **virtual** and **count** metrics — the modelled system (latency
//!   percentiles of the porter and of the unit remote fork, per-layer
//!   work counts). These are bit-identical at one seed; the benchmark
//!   checks that.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and by reading its public counters after the run. Host
//! time is read here, outside `cxl-lint`'s `crates/*/src` wall-clock
//! scope; the simulator itself never sees it.
//!
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fork_unit;
mod host;
mod layers;
pub mod metrics;

use metrics::Metrics;

/// The seed every workload uses unless `--seed` says otherwise (the
/// committed `BENCH_cluster.json` is generated at this seed).
pub const DEFAULT_SEED: u64 = 6502;

/// Where the traced run writes its Chrome trace and where every run
/// keeps the digests of its deterministic metrics.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// End-to-end metrics (printed with `--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("invocations_per_host_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("virt_e2e_mean_ms", "ms"),
    ("virt_e2e_tail_mean_ms", "ms"),
    ("served_share", "ratio"),
];

/// Per-layer metrics (printed with `--trace 1`), with their units. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 79] = [
    ("virt_e2e.samples", "count"),
    ("virt_e2e_p50_ms", "ms"),
    ("virt_e2e_tail_ms", "ms"),
    ("trace_gen.host_s", "s"),
    ("trace_gen.invocations", "count"),
    ("cxl_sim.events", "count"),
    ("cxl_sim.host_ns_per_event", "ns"),
    ("cxlporter.host_s", "s"),
    ("cxlporter.served", "count"),
    ("cxlporter.warm_hits", "count"),
    ("cxlporter.restores", "count"),
    ("cxlporter.full_cold", "count"),
    ("cxlporter.checkpoints", "count"),
    ("cxlporter.recycles", "count"),
    ("cxlporter.image_misses", "count"),
    ("cxlporter.device_retries", "count"),
    ("cxlporter.restore_share", "ratio"),
    ("cxlporter.failed_share", "ratio"),
    ("cxlporter.queue_wait_samples", "count"),
    ("cxlporter.queue_wait_p50_ms", "ms"),
    ("cxlporter.queue_wait_tail_ms", "ms"),
    ("faas.deploy.host_s", "s"),
    ("faas.invoke.samples", "count"),
    ("faas.invoke.host_us_p50", "us"),
    ("faas.invoke.host_us_tail", "us"),
    ("node_os.accesses", "count"),
    ("node_os.host_ns_per_access", "ns"),
    ("node_os.llc_hits", "count"),
    ("node_os.llc_hit_ratio", "ratio"),
    ("node_os.cxl_line_access", "count"),
    ("node_os.pt_leaf_cow", "count"),
    ("node_os.fault_upgrade_in_place", "count"),
    ("node_os.fault_anon_zero_fill", "count"),
    ("node_os.fault_file_major", "count"),
    ("node_os.fault_file_minor", "count"),
    ("node_os.fault_local_cow", "count"),
    ("node_os.fault_cxl_cow", "count"),
    ("node_os.fault_cxl_pull", "count"),
    ("node_os.fault_remote_pull", "count"),
    ("core.checkpoint.samples", "count"),
    ("core.checkpoint.host_ms_p50", "ms"),
    ("core.checkpoint.host_ms_tail", "ms"),
    ("core.restore.host_us_p50", "us"),
    ("core.restore.host_us_tail", "us"),
    ("core.release.host_us_p50", "us"),
    ("core.checkpoint.virt_ms_p50", "ms"),
    ("core.restore.virt_us_p50", "us"),
    ("core.phase.checkpoint.copy_pages", "ns"),
    ("core.phase.checkpoint.rebase", "ns"),
    ("core.phase.checkpoint.serialize", "ns"),
    ("core.phase.checkpoint.retry_backoff", "ns"),
    ("core.phase.restore.global_redo", "ns"),
    ("core.phase.restore.attach", "ns"),
    ("core.phase.restore.prefetch", "ns"),
    ("core.phase.restore.retry_backoff", "ns"),
    ("cxl_store.interned_pages", "count"),
    ("cxl_store.deduped_pages", "count"),
    ("cxl_store.evicted_images", "count"),
    ("cxl_store.dedup_ratio", "ratio"),
    ("cxl_mem.reads", "count"),
    ("cxl_mem.writes", "count"),
    ("cxl_mem.bytes_read", "bytes"),
    ("cxl_mem.bytes_written", "bytes"),
    ("cxl_mem.used_pages_end", "pages"),
    ("cxl_fabric.transfers", "count"),
    ("cxl_fabric.queue_delay_ns", "ns"),
    ("cxl_fabric.max_queue_delay_ns", "ns"),
    ("cxl_fault.transients", "count"),
    ("cxl_telemetry.traced_host_s", "s"),
    ("cxl_telemetry.overhead", "ratio"),
    ("cxl_telemetry.spans", "count"),
    ("self_s.setup", "s"),
    ("self_s.cxlporter.run_trace", "s"),
    ("self_s.iteration", "s"),
    ("self_s.core.checkpoint", "s"),
    ("self_s.core.restore", "s"),
    ("self_s.faas.invoke", "s"),
    ("self_s.core.release", "s"),
    ("self_s.cxl_fabric.charge", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_cluster`'s configuration: 99.6 % warm hits at seed 6502.
    ClusterWarm,
    /// The same trace with a ~100 ms keep-alive and checkpoint-after-1:
    /// most invocations restore from a checkpoint.
    ClusterChurn,
    /// A direct loop of the paper's unit remote fork over Table 1.
    ForkUnit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterWarm,
        Workload::ClusterChurn,
        Workload::ForkUnit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterWarm => "cluster-warm",
            Workload::ClusterChurn => "cluster-churn",
            Workload::ForkUnit => "fork-unit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the timed configuration or the smoke configuration the
/// benchmark's own tests (and `--features check`) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The stated workload size.
    Full,
    /// A tiny trace and two functions per workload.
    Smoke,
}

/// One benchmark invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the timed phase should take (approximately).
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host, virtual and count metrics, end-to-end and per-layer.
    pub metrics: Metrics,
    /// Operations attempted (invocations, or fork-unit calls).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Runs one workload.
pub fn run(options: &Options) -> Outcome {
    let mut outcome = match options.workload {
        Workload::ClusterWarm | Workload::ClusterChurn => cluster::run(options),
        Workload::ForkUnit => fork_unit::run(options),
    };
    outcome.metrics.host(
        "peak_rss_mib",
        "MiB",
        host::peak_rss_mib().unwrap_or_else(|| {
            outcome.errors.push("peak RSS unreadable".into());
            0.0
        }),
    );
    // A layer the workload does not exercise reads 0.
    if options.trace {
        for (name, unit) in PER_LAYER {
            if outcome.metrics.get(name).is_none() {
                outcome.metrics.det(name, unit, 0.0);
            }
        }
    }
    let digest = outcome.metrics.deterministic_digest();
    if let Err(e) = host::check_digest(options, digest) {
        outcome.errors.push(e);
    }
    outcome
}
