//! Per-layer readings shared by the workloads: everything here is read
//! from a layer's public counters after (or around) the timed phase.

use cxl_mem::CxlDeviceStats;
use cxl_telemetry::TelemetryData;
use node_os::mm::FaultKind;
use node_os::Node;
use simclock::stats::Counters;

use crate::metrics::{ratio, sorted, tail, Metrics};

/// The fault kinds `node_os` counts, in `FaultKind` order.
pub const FAULT_KINDS: [FaultKind; 8] = [
    FaultKind::UpgradeInPlace,
    FaultKind::AnonZeroFill,
    FaultKind::FileMajor,
    FaultKind::FileMinor,
    FaultKind::LocalCow,
    FaultKind::CxlCow,
    FaultKind::CxlPull,
    FaultKind::RemotePull,
];

/// Every node's counters, summed.
pub fn node_counters<'a>(nodes: impl IntoIterator<Item = &'a Node>) -> Counters {
    let mut total = Counters::new();
    for node in nodes {
        total.merge(node.counters());
    }
    total
}

/// The `node_os` counters the benchmark reports, as `after - before`.
pub fn node_os(m: &mut Metrics, before: &Counters, after: &Counters, timed_ns: u64) {
    let delta = |name: &str| after.get(name) - before.get(name);
    let hits = delta("llc_hit");
    let accesses = hits + delta("llc_miss");
    m.count("node_os.accesses", accesses);
    m.host(
        "node_os.host_ns_per_access",
        "ns",
        ratio(timed_ns as f64, accesses as f64),
    );
    m.count("node_os.llc_hits", hits);
    m.det(
        "node_os.llc_hit_ratio",
        "ratio",
        ratio(hits as f64, accesses as f64),
    );
    m.count("node_os.cxl_line_access", delta("cxl_line_access"));
    m.count("node_os.pt_leaf_cow", delta("pt_leaf_cow"));
    for kind in FAULT_KINDS {
        let name = kind.counter_name();
        m.count(&format!("node_os.{name}"), delta(name));
    }
}

/// Device traffic as `after - before`, and the pages in use at the end.
pub fn cxl_mem(m: &mut Metrics, before: &CxlDeviceStats, after: &CxlDeviceStats, used: u64) {
    let sum =
        |map: &std::collections::BTreeMap<cxl_mem::NodeId, u64>| -> u64 { map.values().sum() };
    m.count("cxl_mem.reads", after.total_reads() - before.total_reads());
    m.count(
        "cxl_mem.writes",
        after.total_writes() - before.total_writes(),
    );
    m.det(
        "cxl_mem.bytes_read",
        "bytes",
        (sum(&after.bytes_read) - sum(&before.bytes_read)) as f64,
    );
    m.det(
        "cxl_mem.bytes_written",
        "bytes",
        (sum(&after.bytes_written) - sum(&before.bytes_written)) as f64,
    );
    m.det("cxl_mem.used_pages_end", "pages", used as f64);
}

/// What only the armed registry knows: core phase time and the number
/// of spans the program recorded.
pub fn registry(m: &mut Metrics, data: &TelemetryData) {
    // The armed registry double-enters each core phase as a
    // `core.phase.<name>` ns counter.
    for phase in cxlfork_bench::CORE_PHASES {
        let ns = data
            .registry
            .counter_across_nodes("core", &format!("phase.{phase}"));
        m.det(&format!("core.phase.{phase}"), "ns", ns as f64);
    }
    m.count("cxl_telemetry.spans", data.spans.len() as u64);
}

/// Median and tail of host-time samples (ns) in `scale` units:
/// `(p50, tail)`.
pub fn host_p50_tail(samples_ns: Vec<f64>, scale: f64) -> (f64, f64) {
    let s = sorted(samples_ns);
    (
        crate::metrics::quantile(&s, 0.5) / scale,
        tail(&s).1 / scale,
    )
}
