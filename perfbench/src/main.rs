//! perfbench — a single-threaded, closed-loop benchmark of the swpf
//! compile path and timing simulator. It calls each layer's public
//! functions from outside and times the calls; README.md explains the
//! workloads and metrics.
//!
//! ```text
//! perfbench --workload <sim-inorder|sim-ooo|compile> [--seed N] [--seconds N]
//!           [--trace 0|1] [--scale paper|test]
//! ```
//!
//! Every line but the last is a human-readable report; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`.

mod compile;
mod sim;
mod util;

use compile::{compile_op, sample_configs};
use sim::{Input, Kernel, Reference, Variant};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;
use swpf_core::PassConfig;
use swpf_sim::{CoreKind, MachineConfig};
use swpf_workloads::{Scale, Workload, WorkloadId};
use util::{geomean, Dist, Ledger, Rng, Tally};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 30;

/// The sim-* workloads' kernels: their paper-scale cells take ~0.1–2.3 s
/// each. CG (~10 s per cell) and G500-s21 (3–8 s per cell, 40% of a
/// sim-ooo run on its own) are left out to fit the run budget.
const SIM_IDS: [WorkloadId; 5] = [
    WorkloadId::Is,
    WorkloadId::Ra,
    WorkloadId::Hj2,
    WorkloadId::Hj8,
    WorkloadId::G500Small,
];
/// Kernel of the traced run's probe cells on the core kind a workload
/// does not itself simulate.
const PROBE_ID: WorkloadId = WorkloadId::Hj8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Full cells the sim-* workloads execute a second time, to check that
/// simulated statistics repeat.
const REPEAT_CELLS: usize = 1;
/// Instructions of one throughput slice of a cell.
const SLICE_INSTS: u64 = 500_000;
/// Slices of each cell per sim-* run; `sim_minst_per_s` keeps the best.
const SLICE_REPS: usize = 12;
/// Rounds over the sim-* workloads' own compile ops after each cell.
const SIM_COMPILE_ROUNDS_PER_CELL: u64 = 8;
/// Rounds over the compile workload's op list per requested second.
const COMPILE_ROUNDS_PER_SECOND: u64 = 25;
/// Compile rounds of a traced run (bounds the size of the trace).
const TRACED_COMPILE_ROUNDS: u64 = 20;
/// Sampled look-ahead distances per pipeline (compile workload).
const CONFIGS_PER_PIPELINE: usize = 8;
/// Repetitions of the traced ledger's isolated compile-layer calls.
const ISOLATE_REPS: usize = 5;
/// Alternating untraced/traced rounds that measure tracing overhead.
const OVERHEAD_ROUNDS: usize = 20;
/// Instructions whose memory events the traced ledger replays.
const CAPTURE_INSTS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bench {
    SimInOrder,
    SimOoo,
    Compile,
}

impl Bench {
    fn parse(s: &str) -> Result<Bench, String> {
        match s {
            "sim-inorder" => Ok(Bench::SimInOrder),
            "sim-ooo" => Ok(Bench::SimOoo),
            "compile" => Ok(Bench::Compile),
            _ => Err(format!(
                "unknown workload `{s}` (expected sim-inorder, sim-ooo or compile)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bench::SimInOrder => "sim-inorder",
            Bench::SimOoo => "sim-ooo",
            Bench::Compile => "compile",
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut scale = Scale::Paper;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(&value)?),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                }
            }
            "--scale" => scale = value.parse()?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

/// A compile op: a workload (by index into the caller's list) and the
/// pass config to compile it with (`None`: the baseline, no pipeline).
type Op = (usize, Option<PassConfig>);

/// Everything one run measures.
#[derive(Default)]
struct Run {
    ledger: Ledger,
    tally: Tally,
    report: String,
    setup_s: Vec<f64>,
    compile_us: Vec<f64>,
    code_insts: u64,
    cell_rates: Vec<f64>,
    speedups: Vec<f64>,
    /// Simulated counters summed over the run's own cells.
    totals: BTreeMap<&'static str, u64>,
    trace_overhead: f64,
}

impl Run {
    fn line(&mut self, s: impl std::fmt::Display) {
        let _ = writeln!(self.report, "# {s}");
    }
}

fn main() {
    util::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-inorder|sim-ooo|compile> [--seed N] \
                 [--seconds N] [--trace 0|1] [--scale paper|test]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    if args.trace {
        swpf_obs::enable();
    }
    let mut r = Run::default();
    r.line(format_args!(
        "perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.bench.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.label()
    ));
    let ref_start = util::host_ref_ms();
    let t = Instant::now();
    match args.bench {
        Bench::SimInOrder => run_sim(
            &mut r,
            args,
            [MachineConfig::a53(), MachineConfig::xeon_phi()],
        )?,
        Bench::SimOoo => run_sim(
            &mut r,
            args,
            [MachineConfig::haswell(), MachineConfig::a57()],
        )?,
        Bench::Compile => run_compile(&mut r, args)?,
    }
    let elapsed = t.elapsed().as_secs_f64();
    let ref_end = util::host_ref_ms();
    r.line(format_args!(
        "host.ref_ms start={ref_start:.3} end={ref_end:.3} (reference loop; not used to normalise)"
    ));
    r.line(format_args!("run body {elapsed:.2} s"));

    let metrics = if args.trace {
        per_layer_metrics(&mut r, args, (ref_start + ref_end) / 2.0)
    } else {
        end_to_end_metrics(&mut r)
    };
    let mut out = std::mem::take(&mut r.report);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        body.join(", ")
    );
    Ok(out)
}

/// sim-inorder / sim-ooo: every paper-scale baseline and auto cell of
/// `SIM_IDS` on both `machines`, in an order drawn from the seed. The
/// cells' own kernels are recompiled between cells, so the compile
/// samples span the run.
fn run_sim(r: &mut Run, args: &Args, machines: [MachineConfig; 2]) -> Result<(), String> {
    let mut rng = Rng::new(args.seed);
    let set_up = sim_set_up(r, args)?;
    let suite = Suite::new(r, set_up);
    let ws: Vec<&dyn Workload> = suite.inputs.iter().map(|i| i.w.as_ref()).collect();
    let ops: Vec<Op> = (0..ws.len())
        .flat_map(|wi| [(wi, None), (wi, Some(PassConfig::default()))])
        .collect();
    let mut compile = CompileLog::new(ops.len());
    let n_kernels = suite.kernels.len();
    let mut cells: Vec<(usize, usize)> = (0..machines.len())
        .flat_map(|mi| (0..n_kernels).map(move |ki| (mi, ki)))
        .collect();
    for _ in 0..REPEAT_CELLS {
        let again = cells[rng.below(cells.len())];
        cells.push(again);
    }
    rng.shuffle(&mut cells);
    let distinct = machines.len() * n_kernels;
    let mut slices: Vec<(usize, usize)> = (0..SLICE_REPS * distinct)
        .map(|i| (i % distinct / n_kernels, i % n_kernels))
        .collect();
    rng.shuffle(&mut slices);
    let per_cell = if args.trace {
        1
    } else {
        SIM_COMPILE_ROUNDS_PER_CELL
    };
    let mut sim = CellLog::default();
    for (n, &(mi, ki)) in cells.iter().enumerate() {
        sim.cell(r, &suite, &machines[mi], mi, ki, true);
        // Spread the slices evenly between the full cells.
        let range = slices.len() * n / cells.len()..slices.len() * (n + 1) / cells.len();
        for &(smi, ski) in &slices[range] {
            sim.slice(r, &suite, &machines[smi], smi, ski);
        }
        for _ in 0..per_cell {
            compile.round(r, &ws, &ops);
        }
    }
    sim.finish(r, &suite, &machines);
    compile.finish(r);

    if args.trace {
        let look_ahead = PassConfig::default().look_ahead;
        let isolate: Vec<(usize, i64)> = (0..ws.len()).map(|wi| (wi, look_ahead)).collect();
        traced_ledger(r, &suite, &ws, &ops, &isolate, &machines);
    }
    // The other set-up samples come last, after the kept set-up is
    // dropped, so the samples span the run while memory holds one.
    drop(ws);
    drop(suite);
    while r.setup_s.len() < SETUP_REPS {
        sim_set_up(r, args)?;
    }
    Ok(())
}

/// The sim workloads' set-up, timed as one `setup_s` sample: every
/// kernel compiled, decoded and lowered, and every input's data set up.
fn sim_set_up(r: &mut Run, args: &Args) -> Result<(Vec<Input>, Vec<Kernel>), String> {
    let t = Instant::now();
    let out = sim::set_up(&mut r.ledger, &SIM_IDS, args.scale)?;
    r.setup_s.push(t.elapsed().as_secs_f64());
    Ok(out)
}

/// compile: every paper workload × a seeded sample of pass configs.
/// Between rounds it runs one cell of a fixed test-scale simulation, so
/// every metric has a value, and it repeats the set-up at evenly spaced
/// rounds, so the set-up samples span the run.
fn run_compile(r: &mut Run, args: &Args) -> Result<(), String> {
    let mut rng = Rng::new(args.seed);
    let configs = sample_configs(&mut rng, CONFIGS_PER_PIPELINE);
    let mut ops: Vec<Op> = (0..WorkloadId::ALL.len())
        .flat_map(|wi| configs.iter().map(move |c| (wi, Some(c.clone()))))
        .collect();
    rng.shuffle(&mut ops);
    r.line(format_args!(
        "configs: {}",
        configs
            .iter()
            .map(|c| c.cache_key())
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let rounds = if args.trace {
        TRACED_COMPILE_ROUNDS
    } else {
        args.seconds * COMPILE_ROUNDS_PER_SECOND
    };
    let (boxes, control) = compile_set_up(r, args, &ops)?;
    let ws: Vec<&dyn Workload> = boxes.iter().map(|b| b.as_ref()).collect();
    let suite = Suite::new(r, control);
    check_semantics(r, &configs);

    let machines = [MachineConfig::a53()];
    let mut cells: Vec<usize> = (0..suite.kernels.len()).collect();
    rng.shuffle(&mut cells);
    let mut sim = CellLog::default();
    for &ki in &cells {
        sim.cell(r, &suite, &machines[0], 0, ki, true);
    }
    let mut compile = CompileLog::new(ops.len());
    let setup_every = (rounds / SETUP_REPS as u64).max(1);
    for round in 0..rounds {
        if round > 0 && round % setup_every == 0 && r.setup_s.len() < SETUP_REPS {
            compile_set_up(r, args, &ops)?;
        }
        compile.round(r, &ws, &ops);
        let ki = cells[round as usize % cells.len()];
        sim.slice(r, &suite, &machines[0], 0, ki);
    }
    sim.finish(r, &suite, &machines);
    compile.finish(r);

    if args.trace {
        let mut isolate: Vec<(usize, i64)> = ops
            .iter()
            .map(|(wi, c)| {
                (
                    *wi,
                    c.as_ref().expect("compile ops run a pipeline").look_ahead,
                )
            })
            .collect();
        isolate.sort_unstable();
        isolate.dedup();
        traced_ledger(r, &suite, &ws, &ops, &isolate, &machines);
    }
    Ok(())
}

type CompileSetUp = (Vec<Box<dyn Workload>>, (Vec<Input>, Vec<Kernel>));

/// The compile workload's set-up, timed as one `setup_s` sample:
/// instantiate the paper workloads, set up the test-scale simulation,
/// and run one untimed round of the op list so caches fill and lazy
/// set-up ends.
fn compile_set_up(r: &mut Run, args: &Args, ops: &[Op]) -> Result<CompileSetUp, String> {
    let t = Instant::now();
    let boxes: Vec<Box<dyn Workload>> = WorkloadId::ALL
        .iter()
        .map(|id| id.instantiate(args.scale))
        .collect();
    let control = sim::set_up(&mut r.ledger, &SIM_IDS, Scale::Test)?;
    let ws: Vec<&dyn Workload> = boxes.iter().map(|b| b.as_ref()).collect();
    CompileLog::new(ops.len()).round(r, &ws, ops);
    r.setup_s.push(t.elapsed().as_secs_f64());
    Ok((boxes, control))
}

/// Best host time of each compile op over the rounds run so far, and
/// the static code size of the first round.
struct CompileLog {
    best: Vec<f64>,
    code: Option<u64>,
}

impl CompileLog {
    fn new(ops: usize) -> Self {
        CompileLog {
            best: vec![f64::INFINITY; ops],
            code: None,
        }
    }

    /// Run every op of the list once.
    fn round(&mut self, r: &mut Run, ws: &[&dyn Workload], ops: &[Op]) {
        let mut code = 0u64;
        for (i, (wi, config)) in ops.iter().enumerate() {
            let w = ws[*wi];
            let label = || {
                config
                    .as_ref()
                    .map_or("baseline".into(), PassConfig::cache_key)
            };
            let done = r
                .tally
                .op(format_args!("compile {} {}", w.name(), label()), || {
                    let t = Instant::now();
                    let c = compile_op(&mut r.ledger, w, config.as_ref())?;
                    Ok((t.elapsed().as_secs_f64() * 1e6, c.code_insts as u64))
                });
            if let Some((us, insts)) = done {
                self.best[i] = self.best[i].min(us);
                code += insts;
            }
        }
        self.code.get_or_insert(code);
    }

    /// Each op's best time is one `compile_us` sample.
    fn finish(self, r: &mut Run) {
        r.compile_us = self.best.into_iter().filter(|us| us.is_finite()).collect();
        r.code_insts = self.code.unwrap_or(0);
    }
}

/// The inputs and kernels a run simulates, with the oracle checksum of
/// every input and an interpreter-only reference run of every kernel
/// checked against it.
struct Suite {
    inputs: Vec<Input>,
    kernels: Vec<Kernel>,
    expected: Vec<Option<u64>>,
    refs: Vec<Option<Reference>>,
}

impl Suite {
    fn new(r: &mut Run, (inputs, kernels): (Vec<Input>, Vec<Kernel>)) -> Self {
        let mut expected = Vec::new();
        for input in &inputs {
            expected.push(r.tally.op(format_args!("oracle {}", input.id.name()), || {
                sim::oracle(input)
            }));
        }
        let mut refs = Vec::new();
        for k in &kernels {
            let input = &inputs[k.input];
            refs.push(expected[k.input].and_then(|e| {
                r.tally.op(
                    format_args!("interpret {} {}", input.id.name(), k.variant.label()),
                    || sim::interp_only(&mut r.ledger, input, k, e),
                )
            }));
        }
        Suite {
            inputs,
            kernels,
            expected,
            refs,
        }
    }
}

/// Every sampled config must preserve each workload's result: compile
/// the test-scale kernel with it and compare the checksum with the
/// classic interpreter's result for the baseline.
fn check_semantics(r: &mut Run, configs: &[PassConfig]) {
    let mut scratch = Ledger::default();
    for id in WorkloadId::ALL {
        let input = sim::input(&mut scratch, id, Scale::Test);
        let Some(expected) = r.tally.op(format_args!("oracle {} test", id.name()), || {
            sim::oracle(&input)
        }) else {
            continue;
        };
        for config in configs {
            r.tally.op(
                format_args!("semantics {} {}", id.name(), config.cache_key()),
                || {
                    let c = compile_op(&mut scratch, input.w.as_ref(), Some(config))?;
                    let k = Kernel::new(0, Variant::Auto, c);
                    sim::interp_only(&mut scratch, &input, &k, expected).map(|_| ())
                },
            );
        }
    }
}

/// What the executed cells and slices showed: the first statistics of
/// each (a repeat must reproduce them), each cell's full-run rate and
/// best slice rate, and the simulated cycles of each (machine, workload)
/// pair.
#[derive(Default)]
struct CellLog {
    first: HashMap<(usize, usize), Vec<(&'static str, u64)>>,
    first_slice: HashMap<(usize, usize), Vec<(&'static str, u64)>>,
    full_rates: Vec<f64>,
    best: BTreeMap<(usize, usize), f64>,
    cycles: BTreeMap<(usize, usize), [Option<u64>; 2]>,
}

impl CellLog {
    /// Execute kernel `ki` on `machine` (index `mi`). Cells of the run's
    /// own list (`own`) feed the end-to-end metrics; probe cells feed
    /// only the ledger.
    fn cell(
        &mut self,
        r: &mut Run,
        suite: &Suite,
        machine: &MachineConfig,
        mi: usize,
        ki: usize,
        own: bool,
    ) {
        let k = &suite.kernels[ki];
        let input = &suite.inputs[k.input];
        // A failed oracle or reference run was already counted.
        let (Some(e), Some(reference)) = (suite.expected[k.input], suite.refs[ki]) else {
            return;
        };
        let prior = self.first.get(&(mi, ki));
        let done = r.tally.op(
            format_args!(
                "cell {} {} {}",
                machine.name,
                input.id.name(),
                k.variant.label()
            ),
            || {
                let (stats, ns) = sim::run_cell(&mut r.ledger, machine, input, k, &reference, e)?;
                if prior.is_some_and(|p| *p != stats.counters()) {
                    return Err(
                        "simulated statistics differ from the cell's first execution".into(),
                    );
                }
                Ok((stats, ns))
            },
        );
        let Some((stats, ns)) = done else { return };
        let cpu = sim::by_core(machine, "sim.cpu.inorder", "sim.cpu.ooo");
        r.ledger.add(
            cpu,
            ns.saturating_sub(reference.interp_ns),
            stats.insts.total,
        );
        if !own {
            return;
        }
        let rate = stats.insts.total as f64 / ns as f64 * 1e3;
        self.full_rates.push(rate);
        if self.first.contains_key(&(mi, ki)) {
            return;
        }
        r.line(format_args!(
            "cell {:<8} {:<8} {:<8} insts={:>9} host={:.3}s {:.2} Minst/s cycles={}",
            machine.name,
            input.id.name(),
            k.variant.label(),
            stats.insts.total,
            ns as f64 / 1e9,
            rate,
            stats.cycles
        ));
        self.first.insert((mi, ki), stats.counters());
        for (name, v) in stats.counters() {
            *r.totals.entry(name).or_default() += v;
        }
        self.cycles.entry((mi, k.input)).or_default()[k.variant as usize] = Some(stats.cycles);
    }

    /// Time one slice of kernel `ki` on `machine` (index `mi`).
    fn slice(&mut self, r: &mut Run, suite: &Suite, machine: &MachineConfig, mi: usize, ki: usize) {
        let k = &suite.kernels[ki];
        let input = &suite.inputs[k.input];
        let prior = self.first_slice.get(&(mi, ki));
        let done = r.tally.op(
            format_args!(
                "slice {} {} {}",
                machine.name,
                input.id.name(),
                k.variant.label()
            ),
            || {
                let (stats, ns) = sim::run_slice(&mut r.ledger, machine, input, k, SLICE_INSTS)?;
                if prior.is_some_and(|p| *p != stats.counters()) {
                    return Err(
                        "simulated statistics differ from the slice's first execution".into(),
                    );
                }
                Ok((stats, ns))
            },
        );
        let Some((stats, ns)) = done else { return };
        let rate = stats.insts.total as f64 / ns as f64 * 1e3;
        let best = self.best.entry((mi, ki)).or_insert(rate);
        *best = best.max(rate);
        self.first_slice
            .entry((mi, ki))
            .or_insert_with(|| stats.counters());
    }

    /// Each cell's best slice rate is one `sim_minst_per_s` sample; each
    /// pair with both variants gives one speedup.
    fn finish(self, r: &mut Run, suite: &Suite, machines: &[MachineConfig]) {
        r.line(format_args!(
            "full-cell rates, Minst/s: {}",
            Dist::of(self.full_rates)
        ));
        r.cell_rates.extend(self.best.into_values());
        for ((mi, input), pair) in self.cycles {
            if let [Some(base), Some(auto)] = pair {
                let s = base as f64 / auto as f64;
                r.speedups.push(s);
                r.line(format_args!(
                    "speedup {:<8} {:<8} {s:.4}x (simulated cycles)",
                    machines[mi].name,
                    suite.inputs[input].id.name()
                ));
            }
        }
    }
}

/// The traced run's extra calls: each compile layer in isolation, the
/// memory hierarchy replayed alone from captured address streams, probe
/// cells on the core kind the workload does not simulate, and the
/// tracing overhead.
fn traced_ledger(
    r: &mut Run,
    suite: &Suite,
    ws: &[&dyn Workload],
    ops: &[Op],
    isolate: &[(usize, i64)],
    machines: &[MachineConfig],
) {
    for rep in 0..ISOLATE_REPS {
        for &(wi, c) in isolate {
            let w = ws[wi];
            let done = r.tally.op(format_args!("isolate {} c{c}", w.name()), || {
                compile::isolate(&mut r.ledger, w, c)
            });
            if let (0, Some(iso)) = (rep, done) {
                r.ledger.events("core.prefetch_sites", iso.prefetch_sites);
                r.ledger.events("pass.removed_insts", iso.removed_insts);
            }
        }
    }

    for k in &suite.kernels {
        let input = &suite.inputs[k.input];
        r.tally.op(
            format_args!("replay {} {}", input.id.name(), k.variant.label()),
            || sim::replay_layers(&mut r.ledger, machines, input, k, CAPTURE_INSTS),
        );
    }

    let has = |kind: CoreKind| machines.iter().any(|m| m.core == kind);
    let mut probe_machines = Vec::new();
    if !has(CoreKind::InOrder) {
        probe_machines.extend([MachineConfig::a53(), MachineConfig::xeon_phi()]);
    }
    if !has(CoreKind::OutOfOrder) {
        probe_machines.extend([MachineConfig::haswell(), MachineConfig::a57()]);
    }
    let mut probe = CellLog::default();
    for (mi, machine) in probe_machines.iter().enumerate() {
        for (ki, k) in suite.kernels.iter().enumerate() {
            if suite.inputs[k.input].id == PROBE_ID {
                probe.cell(r, suite, machine, mi, ki, false);
            }
        }
    }

    let mut scratch = Ledger::default();
    let (mut on, mut off) = (0.0, 0.0);
    for _ in 0..OVERHEAD_ROUNDS {
        for traced in [false, true] {
            if traced {
                swpf_obs::enable();
            } else {
                swpf_obs::disable();
            }
            let t = Instant::now();
            for (wi, config) in ops {
                r.tally.op(format_args!("overhead {}", ws[*wi].name()), || {
                    compile_op(&mut scratch, ws[*wi], config.as_ref()).map(|_| ())
                });
            }
            *(if traced { &mut on } else { &mut off }) += t.elapsed().as_secs_f64();
        }
    }
    swpf_obs::enable();
    r.trace_overhead = on / off;
}

/// A metric's name, unit and value, in the order printed.
type Metric = (&'static str, &'static str, f64);

fn end_to_end_metrics(r: &mut Run) -> Vec<Metric> {
    let rates = Dist::of(r.cell_rates.clone());
    let compile = Dist::of(r.compile_us.clone());
    let setup = Dist::of(r.setup_s.clone());
    r.line(format_args!(
        "sim_minst_per_s, best slice of each cell: {rates}"
    ));
    r.line(format_args!(
        "compile_us, best execution of each compile op: {compile}"
    ));
    r.line(format_args!("setup_s over set-ups: {setup}"));
    let rss = r
        .tally
        .op("peak_rss_mb", util::peak_rss_mb)
        .unwrap_or(f64::NAN);
    let metrics = vec![
        ("sim_minst_per_s", "Minst/s", rates.p50),
        ("sim_speedup_geomean", "x", geomean(&r.speedups)),
        ("compile_us_p50", "us", compile.p50),
        ("compile_us_p90", "us", compile.p90),
        ("code_insts", "count", r.code_insts as f64),
        ("setup_s", "s", setup.p50),
        ("peak_rss_mb", "MB", rss),
    ];
    checked(r, metrics)
}

fn per_layer_metrics(r: &mut Run, args: &Args, host_ref_ms: f64) -> Vec<Metric> {
    let profile = swpf_obs::snapshot();
    let _ = write!(r.report, "{}", profile.summary().render());
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.bench.name(),
        args.seed
    ));
    if r.tally
        .op("write chrome trace", || {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, profile.to_chrome_json()))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .is_some()
    {
        r.line(format_args!("chrome trace: {}", path.display()));
    }
    let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0) as f64;
    let total = |name: &str| r.totals.get(name).copied().unwrap_or(0) as f64;
    let l = &r.ledger;
    let us = |layer: &str| l.per_call(layer, 1e3);
    let metrics = vec![
        (
            "workloads.setup_ms",
            "ms",
            l.per_call("workloads.setup", 1e6),
        ),
        ("ir.build_us", "us", us("ir.build")),
        ("ir.verify_us", "us", us("ir.verify")),
        ("ir.decode_us", "us", us("ir.decode")),
        ("ir.lower_us", "us", us("ir.lower")),
        ("interp.ns_per_inst", "ns", l.per_event("interp.run")),
        ("analysis.dom_us", "us", us("analysis.dom")),
        ("analysis.loops_us", "us", us("analysis.loops")),
        ("analysis.indvar_us", "us", us("analysis.indvar")),
        ("core.swpf_us", "us", us("core.swpf")),
        (
            "core.prefetch_sites",
            "count",
            l.get("core.prefetch_sites").events as f64,
        ),
        ("pass.gvn_us", "us", us("pass.gvn")),
        ("pass.sccp_us", "us", us("pass.sccp")),
        ("pass.licm_us", "us", us("pass.licm")),
        ("pass.dce_us", "us", us("pass.dce")),
        (
            "pass.removed_insts",
            "count",
            l.get("pass.removed_insts").events as f64,
        ),
        (
            "analysis.reuse_share",
            "ratio",
            counter("analysis.preserved")
                / (counter("analysis.preserved") + counter("analysis.computed")),
        ),
        (
            "sim.cpu.inorder_ns_per_inst",
            "ns",
            l.per_event("sim.cpu.inorder"),
        ),
        ("sim.cpu.ooo_ns_per_inst", "ns", l.per_event("sim.cpu.ooo")),
        (
            "sim.memsys.base_ns_per_access",
            "ns",
            l.per_event("sim.memsys.base"),
        ),
        (
            "sim.memsys.auto_ns_per_access",
            "ns",
            l.per_event("sim.memsys.auto"),
        ),
        ("sim.tlb.ns_per_translate", "ns", l.per_event("sim.tlb")),
        ("sim.cache.ns_per_access", "ns", l.per_event("sim.cache")),
        ("sim.ipc", "ratio", total("insts_total") / total("cycles")),
        (
            "sim.l1_miss_rate",
            "ratio",
            total("l1_misses") / (total("l1_hits") + total("l1_misses")),
        ),
        (
            "sim.tlb_miss_rate",
            "ratio",
            total("tlb_misses") / (total("tlb_hits") + total("tlb_misses")),
        ),
        (
            "sim.pf_dropped_share",
            "ratio",
            total("sw_prefetches_dropped") / total("sw_prefetches"),
        ),
        (
            "sim.pf_redundant_share",
            "ratio",
            total("sw_prefetches_redundant") / total("sw_prefetches"),
        ),
        (
            "sim.late_fill_share",
            "ratio",
            total("late_fill_hits") / total("sw_prefetches"),
        ),
        ("host.ref_ms", "ms", host_ref_ms),
        ("obs.trace_overhead", "ratio", r.trace_overhead),
    ];
    checked(r, metrics)
}

/// A value that could not be measured (a failed op left its sample
/// empty) is a failed op and reads 0.
fn checked(r: &mut Run, metrics: Vec<Metric>) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|(name, unit, v)| {
            if v.is_finite() {
                (name, unit, v)
            } else {
                r.tally.op(format_args!("metric {name}"), || {
                    Err::<(), _>("not measured".to_string())
                });
                (name, unit, 0.0)
            }
        })
        .collect()
}
