//! `cluster-warm` and `cluster-churn`: CXLporter serving a 64-node,
//! 64-tenant diurnal trace on the discrete-event engine, with fairness,
//! node crashes, transient device faults and a pressured image store.
//!
//! Both are open-loop in virtual time (arrivals are fixed by the trace)
//! and run as a batch job in host time: set-up builds the trace and the
//! cluster, and the timed phase is one `CxlPorter::run_trace` call.
//! Inside that call the benchmark cannot time anything, so the per-layer
//! split of its host time comes only from deterministic counts and, in
//! the traced run, the armed telemetry registry.

use std::sync::Arc;

use cxl_telemetry::TelemetrySession;
use cxlfork::CxlFork;
use cxlporter::{CxlPorter, FairnessConfig, PorterConfig, PorterReport};
use simclock::stats::Counters;
use simclock::{LatencyModel, SimDuration};
use trace_gen::{DiurnalConfig, Invocation};

use crate::host::{self, Recorder};
use crate::metrics::{e2e_latency, hist_sorted, median, quantile, ratio, tail, Metrics};
use crate::{layers, Options, Outcome, Size, Workload};

/// Nodes in the full-size cluster (as in `BENCH_cluster.json`).
pub const NODES: usize = 64;

/// Set-ups per run, besides one more per extra timed pass: `setup_s`
/// is their median. A set-up takes about 0.1 s, so a run can afford
/// enough of them for the median to ride out host noise.
pub const SETUP_REPEATS: usize = 9;

/// The cluster workloads' fixed parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// The trace configuration.
    pub trace: DiurnalConfig,
    /// Cluster nodes.
    pub nodes: usize,
    /// The porter configuration.
    pub porter: PorterConfig,
}

impl Params {
    /// The parameters for `options`.
    pub fn new(options: &Options) -> Params {
        let (trace, nodes) = match options.size {
            Size::Full => (DiurnalConfig::cluster_default(options.seed), NODES),
            Size::Smoke => (
                DiurnalConfig {
                    duration_secs: 20.0,
                    total_rps: 20.0,
                    tenants: 1,
                    functions_per_tenant: 2,
                    ..DiurnalConfig::cluster_default(options.seed)
                },
                4,
            ),
        };
        let warm = PorterConfig {
            fairness: Some(FairnessConfig::default()),
            ..PorterConfig::cxlfork_dynamic()
        };
        let porter = match options.workload {
            Workload::ClusterChurn => PorterConfig {
                keep_alive: SimDuration::from_millis(100),
                checkpoint_after: 1,
                ..warm
            },
            _ => warm,
        };
        Params {
            trace,
            nodes,
            porter,
        }
    }
}

/// A built cluster, ready for its timed phase.
struct Built {
    trace: Vec<Invocation>,
    porter: CxlPorter<CxlFork>,
    injector: Arc<cxl_fault::Injector>,
    store: Arc<cxl_store::Store>,
}

/// Builds the trace and the cluster exactly as `run_cluster` does, each
/// step inside a host span.
fn build(params: &Params, rec: &mut Recorder) -> Built {
    rec.span("setup", |rec| {
        let config = &params.trace;
        let trace = rec.span("trace_gen.generate", |_| {
            trace_gen::generate_diurnal(config)
        });
        let names = config.function_names();
        trace_gen::validate(&trace, &names).expect("generated trace validates against its catalog");
        let model = LatencyModel::calibrated();
        let cluster = cxlporter::Cluster::new(params.nodes, 512, 16384, model);
        let device = Arc::clone(&cluster.device);
        let injector = Arc::new(cxl_fault::Injector::from_plan(
            cxl_fault::FaultPlan::new(config.seed).with_transient_rate(1e-5),
        ));
        injector.arm(&device);
        let store = Arc::new(cxl_store::Store::with_config(
            Arc::clone(&device),
            cxl_store::StoreConfig {
                high_watermark: 0.02,
                low_watermark: 0.01,
                ..cxl_store::StoreConfig::default()
            },
        ));
        let mut porter = CxlPorter::new(
            cluster,
            CxlFork::with_store(Arc::clone(&store)),
            params.porter.clone(),
        )
        .with_image_store(Arc::clone(&store))
        .with_catalog(cxlfork_bench::cluster_catalog(config));
        porter.set_crash_schedule(cxl_fault::CrashSchedule::from_plan(
            config.seed,
            params.nodes,
            SimDuration::from_secs(config.duration_secs as u64),
            params.nodes / 16,
        ));
        Built {
            trace,
            porter,
            injector,
            store,
        }
    })
}

/// One timed phase and everything read after it.
struct Pass {
    rec: Recorder,
    report: PorterReport,
    trace_len: u64,
    counters: Counters,
    device_stats: cxl_mem::CxlDeviceStats,
    used_pages: u64,
    store_stats: cxl_store::StoreStats,
    transients: u64,
    telemetry: Option<cxl_telemetry::TelemetryData>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.rec.total_ns("setup") as f64 / 1e9
    }

    fn run_trace_ns(&self) -> u64 {
        self.rec.total_ns("cxlporter.run_trace")
    }

    fn served(&self) -> u64 {
        let r = &self.report;
        r.warm_hits + r.restores + r.full_cold
    }
}

fn run_pass(params: &Params, traced: bool) -> Pass {
    let mut rec = Recorder::new();
    let mut built = build(params, &mut rec);
    let session = traced.then(TelemetrySession::start);
    let report = rec.span("cxlporter.run_trace", |_| {
        built.porter.run_trace(&built.trace)
    });
    let telemetry = session.map(TelemetrySession::finish);
    #[cfg(feature = "check")]
    {
        let violations = built.porter.audit();
        assert!(violations.is_empty(), "cluster audit: {violations:?}");
    }
    let device = &built.porter.cluster.device;
    Pass {
        report,
        trace_len: built.trace.len() as u64,
        counters: layers::node_counters(&built.porter.cluster.nodes),
        device_stats: device.stats(),
        used_pages: device.used_pages(),
        store_stats: built.store.stats(),
        transients: built.injector.stats().transients,
        telemetry,
        rec,
    }
}

/// The virtual-time and count metrics of a pass (bit-identical across
/// passes and runs at one seed).
fn deterministic(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let r = &pass.report;
    let served = pass.served();
    let attempted = pass.trace_len + r.redispatched;
    let failed = r.dropped + r.fair_drops + r.work_lost;

    e2e_latency(&mut m, &hist_sorted(&r.overall, 1e6));
    m.det(
        "served_share",
        "ratio",
        1.0 - ratio(failed as f64, attempted as f64),
    );

    m.count("trace_gen.invocations", pass.trace_len);
    m.count("cxl_sim.events", r.engine_events);
    m.count("cxlporter.served", served);
    m.count("cxlporter.warm_hits", r.warm_hits);
    m.count("cxlporter.restores", r.restores);
    m.count("cxlporter.full_cold", r.full_cold);
    m.count("cxlporter.checkpoints", r.checkpoints);
    m.count("cxlporter.recycles", r.recycles);
    m.count("cxlporter.image_misses", r.image_misses);
    m.count("cxlporter.device_retries", r.device_retries);
    m.det(
        "cxlporter.restore_share",
        "ratio",
        ratio(r.restores as f64, served as f64),
    );
    m.det(
        "cxlporter.failed_share",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );

    let s = &pass.store_stats;
    m.count("cxl_store.interned_pages", s.interned_pages);
    m.count("cxl_store.deduped_pages", s.deduped_pages);
    m.count("cxl_store.evicted_images", s.evicted_images);
    m.det(
        "cxl_store.dedup_ratio",
        "ratio",
        ratio(s.deduped_pages as f64, s.interned_pages as f64),
    );
    layers::cxl_mem(
        &mut m,
        &cxl_mem::CxlDeviceStats::default(),
        &pass.device_stats,
        pass.used_pages,
    );
    m.count("cxl_fault.transients", pass.transients);
    layers::node_os(
        &mut m,
        &Counters::new(),
        &pass.counters,
        pass.run_trace_ns(),
    );
    m
}

/// Runs `cluster-warm` or `cluster-churn`.
pub fn run(options: &Options) -> Outcome {
    let params = Params::new(options);
    let mut out = Outcome::default();

    // Extra set-ups, built and dropped, so `setup_s` is a median.
    let mut setups: Vec<f64> = Vec::new();
    for _ in 1..SETUP_REPEATS {
        let mut rec = Recorder::new();
        drop(build(&params, &mut rec));
        setups.push(rec.total_ns("setup") as f64 / 1e9);
    }

    // Untraced timed passes: at least one, then another while that ends
    // nearer to `--seconds` than stopping would. Every pass repeats the
    // same work, so only the host figures differ between them.
    let budget_ns = options.seconds * 1_000_000_000;
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(&params, false);
        setups.push(pass.setup_s());
        passes.push(pass);
        let spent: u64 = passes.iter().map(Pass::run_trace_ns).sum();
        let last = passes.last().map_or(0, Pass::run_trace_ns);
        if spent + last / 2 >= budget_ns {
            break;
        }
    }

    let mut m = deterministic(&passes[0]);
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if let Err(e) = m.same_deterministic(&deterministic(pass)) {
            out.errors
                .push(format!("pass {i} differs from pass 0: {e}"));
        }
    }
    check_pass(options, &params, &passes[0], &mut out);

    let first = &passes[0];
    out.attempted = first.trace_len + first.report.redispatched;
    out.failed = first.report.dropped + first.report.fair_drops + first.report.work_lost;

    // The rate over the whole timed phase (every pass serves the same
    // invocations): host speed drifts from pass to pass, and the mean
    // over all passes averages that out where a median of two or three
    // passes picks one of them.
    let run_ns = passes.iter().map(|p| p.run_trace_ns() as f64).sum::<f64>() / passes.len() as f64;
    m.host("setup_s", "s", median(setups));
    m.host(
        "invocations_per_host_s",
        "1/s",
        ratio(first.served() as f64, run_ns / 1e9),
    );
    m.host(
        "trace_gen.host_s",
        "s",
        median(
            passes
                .iter()
                .map(|p| p.rec.total_ns("trace_gen.generate") as f64 / 1e9)
                .collect(),
        ),
    );
    m.host("cxlporter.host_s", "s", run_ns / 1e9);
    m.host(
        "cxl_sim.host_ns_per_event",
        "ns",
        ratio(run_ns, first.report.engine_events as f64),
    );
    m.host(
        "node_os.host_ns_per_access",
        "ns",
        ratio(run_ns, m.value("node_os.accesses")),
    );
    out.notes.push(format!(
        "{} untraced pass(es) of {} invocations; run_trace host s: {:?}",
        passes.len(),
        first.trace_len,
        passes
            .iter()
            .map(|p| p.run_trace_ns() as f64 / 1e9)
            .collect::<Vec<_>>()
    ));

    if options.trace {
        let traced = run_pass(&params, true);
        if let Err(e) = m.same_deterministic(&deterministic(&traced)) {
            out.errors
                .push(format!("arming telemetry moved a virtual result: {e}"));
        }
        traced_metrics(options.workload, &traced, run_ns, &mut m, &mut out);
    }
    out.metrics = m;
    out
}

/// Checks every cluster run: exactly-once accounting, and at the
/// default seed and full size, `cluster-warm` against the committed
/// `BENCH_cluster.json`.
fn check_pass(options: &Options, params: &Params, pass: &Pass, out: &mut Outcome) {
    let r = &pass.report;
    let served = pass.served();
    out.check(
        served + r.dropped + r.fair_drops == pass.trace_len + r.redispatched,
        || {
            format!(
                "exactly-once accounting broken: served {served} + dropped {} + fair drops {} != trace {} + redispatched {}",
                r.dropped, r.fair_drops, pass.trace_len, r.redispatched
            )
        },
    );
    out.check(r.overall.len() as u64 == served, || {
        format!("{} latency samples for {served} served", r.overall.len())
    });
    let pinned = options.workload == Workload::ClusterWarm
        && options.size == Size::Full
        && options.seed == cxlfork_bench::CLUSTER_SEED
        && params.nodes == cxlfork_bench::CLUSTER_NODES;
    if pinned {
        let expect = committed_cluster();
        let mut overall = r.overall.clone();
        let got = [
            ("served", served),
            ("restores", r.restores),
            ("e2e p50 ns", overall.p50().as_nanos()),
            ("e2e p99 ns", overall.p99().as_nanos()),
        ];
        for ((what, got), want) in got.into_iter().zip(expect) {
            out.check(got == want, || {
                format!("{what} = {got}, but BENCH_cluster.json has {want}")
            });
        }
    }
}

/// `(served, restores, e2e p50 ns, e2e p99 ns)` from the committed
/// `BENCH_cluster.json`.
fn committed_cluster() -> [u64; 4] {
    let doc = cxl_telemetry::Json::parse(include_str!("../../BENCH_cluster.json"))
        .expect("BENCH_cluster.json parses");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(cxl_telemetry::Json::as_arr)
            .and_then(|cs| {
                cs.iter()
                    .find(|c| c.get("name").and_then(cxl_telemetry::Json::as_str) == Some(name))
            })
            .and_then(|c| c.get("value"))
            .and_then(cxl_telemetry::Json::as_u64)
            .unwrap_or_else(|| panic!("BENCH_cluster.json lacks counter {name}"))
    };
    let e2e = doc
        .get("latencies")
        .and_then(cxl_telemetry::Json::as_arr)
        .and_then(|ls| {
            ls.iter()
                .find(|l| l.get("name").and_then(cxl_telemetry::Json::as_str) == Some("e2e"))
        })
        .expect("BENCH_cluster.json has an e2e latency");
    let field = |k: &str| {
        e2e.get(k)
            .and_then(cxl_telemetry::Json::as_u64)
            .unwrap_or_else(|| panic!("BENCH_cluster.json e2e lacks {k}"))
    };
    [
        counter("cluster.served"),
        counter("cxlporter.restores"),
        field("p50_ns"),
        field("p99_ns"),
    ]
}

/// Per-layer metrics only the traced pass gives: the armed registry's
/// queue wait and core figures, tracing overhead, and span self times.
fn traced_metrics(
    workload: Workload,
    traced: &Pass,
    untraced_run_ns: f64,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let data = traced
        .telemetry
        .as_ref()
        .expect("traced pass armed telemetry");
    layers::registry(m, data);
    let timer = |layer: &str, name: &str, scale: f64| {
        hist_sorted(&data.registry.timer_across_nodes(layer, name), scale)
    };
    let queue_ms = timer("cxlporter", "queue.latency", 1e6);
    m.count("cxlporter.queue_wait_samples", queue_ms.len() as u64);
    m.det(
        "cxlporter.queue_wait_p50_ms",
        "ms",
        quantile(&queue_ms, 0.5),
    );
    m.det("cxlporter.queue_wait_tail_ms", "ms", tail(&queue_ms).1);
    let checkpoint_ms = timer("core", "checkpoint.latency", 1e6);
    m.count("core.checkpoint.samples", checkpoint_ms.len() as u64);
    m.det(
        "core.checkpoint.virt_ms_p50",
        "ms",
        quantile(&checkpoint_ms, 0.5),
    );
    m.det(
        "core.restore.virt_us_p50",
        "us",
        quantile(&timer("core", "restore.latency", 1e3), 0.5),
    );

    let traced_ns = traced.run_trace_ns() as f64;
    m.host("cxl_telemetry.traced_host_s", "s", traced_ns / 1e9);
    m.host(
        "cxl_telemetry.overhead",
        "ratio",
        ratio(traced_ns, untraced_run_ns) - 1.0,
    );
    for name in ["setup", "cxlporter.run_trace"] {
        m.host(&format!("self_s.{name}"), "s", traced.rec.self_s(name));
    }
    out.notes.push(
        "run_trace is one call: its host time is not split by layer; the per-layer view inside it \
         comes from deterministic counts and the armed registry"
            .into(),
    );
    match host::write_out(
        &format!("{}.chrome.json", workload.name()),
        &cxl_telemetry::chrome_trace(&traced.rec.to_records()),
    ) {
        Ok(path) => out.notes.push(format!("benchmark-side spans: {path}")),
        Err(e) => out.errors.push(format!("chrome trace: {e}")),
    }
}
