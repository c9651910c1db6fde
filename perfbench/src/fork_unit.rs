//! `fork-unit`: the paper's unit remote-fork experiment (§6.2, Fig. 7a)
//! as a direct loop over the Table-1 functions.
//!
//! Set-up deploys and warms one parent per function on node 0. Each
//! iteration then checkpoints a parent (store-less, so the full image is
//! copied), restores it on node 1 behind a loaded `cxl-fabric` switch,
//! runs the child's first invocation, kills the child and releases the
//! checkpoint, timing each call on its own. Iterations rotate MoW / MoA /
//! HT restore and shard parallelism 1 / 8 so that every function meets
//! every configuration equally often; the seed picks the function order
//! within a round and each child's invocation input.

use std::sync::Arc;

use cxl_mem::{CxlDevice, FabricLink};
use cxl_telemetry::TelemetrySession;
use cxlfork::{CxlFork, CxlForkConfig};
use faas::FunctionSpec;
use node_os::fs::SharedFs;
use node_os::{Node, NodeConfig, Pid};
use rfork::{RemoteFork, RestoreOptions};
use simclock::{LatencyModel, SimDuration};

use crate::host::{self, Recorder, TimedLink};
use crate::layers;
use crate::metrics::{e2e_latency, median, quantile, ratio, sorted, tail, Metrics};
use crate::{Options, Outcome, Size};

/// Background load on the switch ports, permille of window capacity:
/// the seed picks a load in `[BASE, BASE + SPAN]`.
pub const BACKGROUND_LOAD_PERMILLE: (u32, u32) = (450, 100);

/// Shard parallelism levels the loop rotates through.
pub const PARALLELISM: [u32; 2] = [1, 8];

/// Blocks of [`CONFIGS`] rounds at the start of the loop whose virtual
/// and count metrics the run reports: the same work on every run at one
/// seed, whatever the host speed, so those metrics repeat exactly. The
/// loop then runs further blocks while that ends nearer to `--seconds`,
/// and the host metrics cover every block, so a run measures about
/// `--seconds` on a fast host and a slow one alike. Three blocks take
/// 3–5 s; the traced pass runs only those.
pub const DETERMINISTIC_BLOCKS: u64 = 3;

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The three restore policies the loop rotates through.
fn restore_policies() -> [RestoreOptions; 3] {
    [
        RestoreOptions::mow(),
        RestoreOptions::moa(),
        RestoreOptions::hybrid(),
    ]
}

/// Configurations (policy × parallelism) per rotation.
const CONFIGS: usize = 6;

/// The workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// The functions, one parent each.
    pub functions: Vec<FunctionSpec>,
    /// Blocks whose virtual and count metrics are reported (and the
    /// whole loop of the traced pass).
    pub det_blocks: u64,
    /// Host ns the untraced loop should take; it runs at least
    /// `det_blocks` blocks.
    pub budget_ns: u64,
    /// Input seed.
    pub seed: u64,
    /// Set-ups per run.
    pub setup_repeats: usize,
    /// Offered background load on the fabric, permille.
    pub load_permille: u32,
}

impl Params {
    /// The parameters for `options`.
    pub fn new(options: &Options) -> Params {
        let (functions, det_blocks, budget_ns, setup_repeats) = match options.size {
            Size::Full => (
                faas::suite(),
                DETERMINISTIC_BLOCKS,
                options.seconds * 1_000_000_000,
                SETUP_REPEATS,
            ),
            Size::Smoke => (
                ["Float", "Json"]
                    .iter()
                    .map(|n| faas::by_name(n).expect("Table-1 function"))
                    .collect(),
                1,
                0,
                1,
            ),
        };
        let (base, span) = BACKGROUND_LOAD_PERMILLE;
        Params {
            functions,
            det_blocks,
            budget_ns,
            seed: options.seed,
            setup_repeats,
            load_permille: base + (mix(options.seed) % u64::from(span + 1)) as u32,
        }
    }
}

/// SplitMix64 finaliser: derives per-iteration inputs from the seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Two nodes on one fabric-attached device, parents warm on node 0.
struct World {
    device: Arc<CxlDevice>,
    topology: Arc<cxl_fabric::FabricTopology>,
    node0: Node,
    node1: Node,
    parents: Vec<Pid>,
    _rootfs: Arc<SharedFs>,
}

fn build(params: &Params, rec: &mut Recorder) -> World {
    rec.span("setup", |rec| {
        let model = LatencyModel::calibrated();
        let device = Arc::new(CxlDevice::with_capacity_mib(8192));
        let rootfs = Arc::new(SharedFs::new());
        let node = |id| {
            Node::with_rootfs(
                NodeConfig::default()
                    .with_id(id)
                    .with_local_mem_mib(4096)
                    .with_model(model.clone()),
                Arc::clone(&device),
                Arc::clone(&rootfs),
            )
        };
        let (mut node0, node1) = (node(0), node(1));
        let topology = Arc::new(cxl_fabric::FabricTopology::new(cxl_fabric::FabricConfig {
            background_load_permille: params.load_permille,
            ..cxl_fabric::FabricConfig::default()
        }));
        let parents = params
            .functions
            .iter()
            .map(|spec| {
                rec.span("faas.deploy", |_| {
                    let (pid, _) = faas::deploy_cold(&mut node0, spec).expect("parent deploys");
                    faas::warm_for_checkpoint(
                        &mut node0,
                        pid,
                        spec,
                        cxlfork_bench::DEFAULT_STEADY_INVOCATIONS,
                    )
                    .expect("parent warms");
                    pid
                })
            })
            .collect();
        World {
            device,
            topology,
            node0,
            node1,
            parents,
            _rootfs: rootfs,
        }
    })
}

/// Virtual-time samples of one timed loop.
#[derive(Default)]
struct Samples {
    e2e_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    restore_us: Vec<f64>,
}

/// One timed loop and what was read around it.
struct Pass {
    rec: Recorder,
    /// Every block's calls, and the ones that failed.
    calls: Calls,
    leaks: Vec<String>,
    /// Virtual and count metrics of the first `det_blocks` blocks.
    det: Metrics,
    /// Sorted end-to-end samples (ms) of the first `det_blocks` blocks.
    det_e2e_ms: Vec<f64>,
    /// Child first invocations served over every block.
    served: u64,
    /// Simulated accesses over every block.
    accesses: u64,
    loop_ns: u64,
    /// Host ns of each block of [`CONFIGS`] rounds.
    block_ns: Vec<u64>,
    telemetry: Option<cxl_telemetry::TelemetryData>,
}

impl Pass {
    /// Host ns of the first `blocks` blocks.
    fn blocks_ns(&self, blocks: u64) -> u64 {
        self.block_ns.iter().take(blocks as usize).sum()
    }
}

/// The calls a timed loop made, and the ones that failed.
#[derive(Debug, Default)]
struct Calls {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Calls {
    /// Counts one call, keeping its value or its error.
    fn note<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            self.errors.push(format!("{what} failed: {e:?}"));
        })
        .ok()
    }
}

/// Runs the timed loop, with telemetry armed when `traced`. The traced
/// loop runs only the `det_blocks` blocks; the untraced one goes on
/// while that ends nearer to its host-time budget.
fn run_pass(params: &Params, world: &mut World, mut rec: Recorder, traced: bool) -> Pass {
    let forks: Vec<CxlFork> = PARALLELISM
        .iter()
        .map(|&p| CxlFork::with_config(CxlForkConfig::with_parallelism(p)))
        .collect();
    let topology: Arc<dyn FabricLink> = Arc::clone(&world.topology) as _;
    let timed = traced.then(|| Arc::new(TimedLink::new(Arc::clone(&topology), &rec)));
    let link = timed.clone().map_or(topology, |t| t as Arc<dyn FabricLink>);
    world.device.attach_fabric(Some((link, 0)));
    let window = SimDuration::from_nanos(2 * world.topology.config().window_ns);

    let counters_before = layers::node_counters([&world.node0, &world.node1]);
    let device_before = world.device.stats();
    let base_pages = world.device.used_pages();
    let mut samples = Samples::default();
    let mut calls = Calls::default();
    let mut leaks = Vec::new();
    let mut det = None;
    let n = params.functions.len() as u64;

    let session = traced.then(TelemetrySession::start);
    let loop_start = rec.now_ns();
    let mut block_ns = Vec::new();
    let mut block_start = loop_start;
    for round in 0_u64.. {
        let offset = mix(params.seed ^ round.wrapping_mul(0x5851_f42d)) % n;
        for k in 0..n {
            let f = ((k + offset) % n) as usize;
            let config = (round as usize + f) % CONFIGS;
            let options = restore_policies()[config % 3];
            let fork = &forks[config / 3];
            let spec = &params.functions[f];
            let parent = world.parents[f];
            let input = mix(params.seed.wrapping_add(round * n + f as u64)) % 4096;
            let World {
                node0,
                node1,
                device,
                ..
            } = world;
            rec.span("iteration", |rec| {
                let ckpt = rec.span("core.checkpoint", |rec| {
                    let r = fork.checkpoint(node0, parent);
                    if let Some(t) = &timed {
                        t.drain_into(rec);
                    }
                    r
                });
                let Some(ckpt) = calls.note("checkpoint", ckpt) else {
                    return;
                };
                // The checkpoint's own traffic ages out of the fabric
                // window: the restore sees the background load only.
                node1.clock_mut().advance_to(node0.now());
                node1.clock_mut().advance(window);
                let restored = rec.span("core.restore", |rec| {
                    let r = fork.restore_with(&ckpt, node1, options);
                    if let Some(t) = &timed {
                        t.drain_into(rec);
                    }
                    r
                });
                if let Some(restored) = calls.note("restore", restored) {
                    let invoked = rec.span("faas.invoke", |_| {
                        faas::run_invocation(node1, restored.pid, spec, input)
                    });
                    if let Some(r) = calls.note("invoke", invoked) {
                        let meta = fork.meta(&ckpt);
                        samples
                            .e2e_ms
                            .push((restored.restore_latency + r.total).as_nanos() as f64 / 1e6);
                        samples
                            .checkpoint_ms
                            .push(meta.checkpoint_cost.as_nanos() as f64 / 1e6);
                        samples
                            .restore_us
                            .push(restored.restore_latency.as_nanos() as f64 / 1e3);
                    }
                    let killed = rec.span("node_os.kill", |_| node1.kill(restored.pid));
                    calls.note("kill", killed);
                }
                let released = rec.span("core.release", |_| fork.release(ckpt, node0));
                calls.note("release", released);
                let used = device.used_pages();
                if used != base_pages {
                    leaks.push(format!(
                        "round {round} {}: {used} device pages in use after release, {base_pages} before the loop",
                        spec.name
                    ));
                }
                node0.clock_mut().advance_to(node1.now());
                node0.clock_mut().advance(window);
            });
        }
        if (round + 1) % CONFIGS as u64 != 0 {
            continue;
        }
        let now = rec.now_ns();
        let last = now - block_start;
        block_ns.push(last);
        block_start = now;
        let blocks = block_ns.len() as u64;
        if blocks == params.det_blocks {
            det = Some(deterministic(
                world,
                &counters_before,
                &device_before,
                &samples,
                &calls,
            ));
        }
        let spent = now - loop_start;
        if blocks >= params.det_blocks && (traced || spent + last / 2 >= params.budget_ns) {
            break;
        }
    }
    let loop_ns = rec.now_ns() - loop_start;
    let telemetry = session.map(TelemetrySession::finish);

    #[cfg(feature = "check")]
    {
        let mut violations = cxl_check::audit_node(&world.node0);
        violations.extend(cxl_check::audit_node(&world.node1));
        violations.extend(cxl_check::audit_device(&world.device));
        violations.extend(cxl_check::check_lock_order());
        for fork in &forks {
            violations.extend(fork.verify_seals(&world.device));
        }
        assert!(violations.is_empty(), "fork-unit audit: {violations:?}");
    }

    let (det, det_e2e_ms) = det.expect("the loop runs its deterministic blocks");
    let mut all = Metrics::default();
    let counters_after = layers::node_counters([&world.node0, &world.node1]);
    layers::node_os(&mut all, &counters_before, &counters_after, loop_ns);
    world.device.attach_fabric(None);
    Pass {
        rec,
        calls,
        leaks,
        det,
        det_e2e_ms,
        served: samples.e2e_ms.len() as u64,
        accesses: all.value("node_os.accesses") as u64,
        loop_ns,
        block_ns,
        telemetry,
    }
}

/// The virtual-time and count metrics of the loop so far, with its
/// sorted end-to-end samples (ms).
fn deterministic(
    world: &World,
    counters_before: &simclock::stats::Counters,
    device_before: &cxl_mem::CxlDeviceStats,
    samples: &Samples,
    calls: &Calls,
) -> (Metrics, Vec<f64>) {
    let mut m = Metrics::default();
    let counters = layers::node_counters([&world.node0, &world.node1]);
    // Host ns per access is set over the whole loop by the caller.
    layers::node_os(&mut m, counters_before, &counters, 0);
    layers::cxl_mem(
        &mut m,
        device_before,
        &world.device.stats(),
        world.device.used_pages(),
    );
    let fabric = world.topology.stats();
    m.count("cxl_fabric.transfers", fabric.transfers);
    m.det(
        "cxl_fabric.queue_delay_ns",
        "ns",
        fabric.total_queue_delay.as_nanos() as f64,
    );
    m.det(
        "cxl_fabric.max_queue_delay_ns",
        "ns",
        fabric.max_queue_delay.as_nanos() as f64,
    );
    let e2e = sorted(samples.e2e_ms.clone());
    e2e_latency(&mut m, &e2e);
    m.det(
        "served_share",
        "ratio",
        1.0 - ratio(calls.failed as f64, calls.attempted as f64),
    );
    m.count("faas.invoke.samples", e2e.len() as u64);
    m.count(
        "core.checkpoint.samples",
        samples.checkpoint_ms.len() as u64,
    );
    m.det(
        "core.checkpoint.virt_ms_p50",
        "ms",
        quantile(&sorted(samples.checkpoint_ms.clone()), 0.5),
    );
    m.det(
        "core.restore.virt_us_p50",
        "us",
        quantile(&sorted(samples.restore_us.clone()), 0.5),
    );
    (m, e2e)
}

/// Runs `fork-unit`.
pub fn run(options: &Options) -> Outcome {
    let params = Params::new(options);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut deploy_s = Vec::new();
    let mut world = None;
    let mut rec = Recorder::new();
    for _ in 0..params.setup_repeats {
        drop(world.take());
        rec = Recorder::new();
        world = Some(build(&params, &mut rec));
        setups.push(rec.total_ns("setup") as f64 / 1e9);
        deploy_s.push(rec.total_ns("faas.deploy") as f64 / 1e9);
    }
    let mut world = world.expect("at least one set-up");
    let pass = run_pass(&params, &mut world, rec, false);
    drop(world);

    let mut m = pass.det.clone();
    out.errors
        .extend(pass.leaks.iter().chain(&pass.calls.errors).cloned());
    out.attempted = pass.calls.attempted;
    out.failed = pass.calls.failed;
    m.host("faas.deploy.host_s", "s", median(deploy_s));
    m.host("setup_s", "s", median(setups));
    // The whole loop's rate: on a shared host, speed flips between a
    // fast and a slow mode every few seconds, and the mean over the loop
    // is steadier than a median over its blocks.
    m.host(
        "invocations_per_host_s",
        "1/s",
        ratio(pass.served as f64, pass.loop_ns as f64 / 1e9),
    );
    m.host(
        "node_os.host_ns_per_access",
        "ns",
        ratio(pass.loop_ns as f64, pass.accesses as f64),
    );
    // Every block runs the same iterations, so its rate shows the noise.
    let per_block = (CONFIGS as u64 * params.functions.len() as u64) as f64;
    out.notes.push(format!(
        "block rates (1/s): {:?}",
        pass.block_ns
            .iter()
            .map(|&ns| (ratio(per_block, ns as f64 / 1e9) * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    let rec = &pass.rec;
    let (p50, t) = layers::host_p50_tail(rec.durations_ns("core.checkpoint"), 1e6);
    m.host("core.checkpoint.host_ms_p50", "ms", p50);
    m.host("core.checkpoint.host_ms_tail", "ms", t);
    let (p50, t) = layers::host_p50_tail(rec.durations_ns("core.restore"), 1e3);
    m.host("core.restore.host_us_p50", "us", p50);
    m.host("core.restore.host_us_tail", "us", t);
    let (p50, _) = layers::host_p50_tail(rec.durations_ns("core.release"), 1e3);
    m.host("core.release.host_us_p50", "us", p50);
    let (p50, t) = layers::host_p50_tail(rec.durations_ns("faas.invoke"), 1e3);
    m.host("faas.invoke.host_us_p50", "us", p50);
    m.host("faas.invoke.host_us_tail", "us", t);
    out.notes.push(format!(
        "{} functions x {} rounds = {} invocations in {:.3} host s at {} permille fabric load; \
         virtual and count metrics cover the first {} rounds: e2e tail is p{:.2} of {} samples",
        params.functions.len(),
        pass.block_ns.len() * CONFIGS,
        pass.served,
        pass.loop_ns as f64 / 1e9,
        params.load_permille,
        params.det_blocks * CONFIGS as u64,
        tail(&pass.det_e2e_ms).0,
        pass.det_e2e_ms.len()
    ));

    if options.trace {
        let mut rec = Recorder::new();
        let mut world = build(&params, &mut rec);
        let traced = run_pass(&params, &mut world, rec, true);
        if let Err(e) = m.same_deterministic(&traced.det) {
            out.errors
                .push(format!("arming telemetry moved a virtual result: {e}"));
        }
        let data = traced
            .telemetry
            .as_ref()
            .expect("traced pass armed telemetry");
        layers::registry(&mut m, data);
        m.host(
            "cxl_telemetry.traced_host_s",
            "s",
            traced.loop_ns as f64 / 1e9,
        );
        m.host(
            "cxl_telemetry.overhead",
            "ratio",
            ratio(
                traced.loop_ns as f64,
                pass.blocks_ns(params.det_blocks) as f64,
            ) - 1.0,
        );
        for name in [
            "setup",
            "iteration",
            "core.checkpoint",
            "core.restore",
            "faas.invoke",
            "core.release",
            "cxl_fabric.charge",
        ] {
            m.host(&format!("self_s.{name}"), "s", traced.rec.self_s(name));
        }
        match host::write_out(
            "fork-unit.chrome.json",
            &cxl_telemetry::chrome_trace(&traced.rec.to_records()),
        ) {
            Ok(path) => out.notes.push(format!("benchmark-side spans: {path}")),
            Err(e) => out.errors.push(format!("chrome trace: {e}")),
        }
    }
    out.metrics = m;
    out
}
