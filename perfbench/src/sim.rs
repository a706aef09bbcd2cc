//! The simulation path: kernel inputs, the classic-interpreter oracle,
//! interpreter-only runs, timed machine cells, and the traced ledger's
//! replay of captured address streams through `MemSys`, `Tlb` and
//! `Cache` alone.

use crate::compile::{compile_op, kernel, Compiled};
use crate::util::Ledger;
use std::hint::black_box;
use std::sync::Arc;
use swpf_core::PassConfig;
use swpf_ir::exec::ExecImage;
use swpf_ir::interp::{
    Event, EventKind, ExecObserver, Interp, Memory, NullObserver, RtVal, Tier, Trap,
};
use swpf_ir::FuncId;
use swpf_sim::cache::{Cache, Lookup};
use swpf_sim::tlb::Tlb;
use swpf_sim::{AccessKind, CoreKind, Machine, MachineConfig, MemSys, SharedMem, SimStats};
use swpf_workloads::{Scale, Workload, WorkloadId};

/// A kernel variant of a simulated cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No software prefetches.
    Baseline,
    /// The automatic pass with the default `PassConfig`.
    Auto,
}

impl Variant {
    pub const BOTH: [Variant; 2] = [Variant::Baseline, Variant::Auto];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::Auto => "auto",
        }
    }
}

/// One workload's data, set up once and copied into every execution.
pub struct Input {
    pub id: WorkloadId,
    pub w: Box<dyn Workload>,
    mem: Memory,
    args: Vec<RtVal>,
}

/// A decoded, lowered kernel ready to simulate.
pub struct Kernel {
    pub input: usize,
    pub variant: Variant,
    pub func: FuncId,
    pub image: Arc<ExecImage>,
}

impl Kernel {
    pub fn new(input: usize, variant: Variant, c: Compiled) -> Kernel {
        Kernel {
            input,
            variant,
            func: c.func,
            image: Arc::new(c.image),
        }
    }
}

/// Set up `ids` at `scale`: data for each workload plus its baseline
/// and auto kernels, compiled through [`compile_op`].
pub fn set_up(
    ledger: &mut Ledger,
    ids: &[WorkloadId],
    scale: Scale,
) -> Result<(Vec<Input>, Vec<Kernel>), String> {
    let mut inputs = Vec::new();
    let mut kernels = Vec::new();
    let auto = PassConfig::default();
    for &id in ids {
        let input = self::input(ledger, id, scale);
        for variant in Variant::BOTH {
            let config = (variant == Variant::Auto).then_some(&auto);
            let c = compile_op(ledger, input.w.as_ref(), config)
                .map_err(|e| format!("{} {}: {e}", id.name(), variant.label()))?;
            let k = Kernel::new(inputs.len(), variant, c);
            // Lower once here so no cell pays for it.
            k.image
                .bytecode()
                .ok_or_else(|| format!("{} {}: no bytecode image", id.name(), variant.label()))?;
            kernels.push(k);
        }
        inputs.push(input);
    }
    Ok((inputs, kernels))
}

/// Instantiate workload `id` at `scale` and set up its data.
pub fn input(ledger: &mut Ledger, id: WorkloadId, scale: Scale) -> Input {
    let w = id.instantiate(scale);
    let mut it = Interp::new();
    let (args, _) = ledger.time("workloads.setup", || w.setup(&mut it));
    let mem = std::mem::replace(it.mem(), Memory::with_limit(0));
    Input { id, w, mem, args }
}

/// An interpreter holding a copy of `input`'s data.
fn fresh(input: &Input, mut it: Interp) -> Interp {
    *it.mem() = input.mem.clone();
    it
}

fn trap(e: Trap) -> String {
    format!("trap: {e}")
}

/// The expected checksum: the baseline kernel run on the classic
/// tree-walking interpreter, an implementation independent of the
/// decoded and bytecode tiers every timed run uses.
pub fn oracle(input: &Input) -> Result<u64, String> {
    let m = input.w.build_baseline();
    let func = kernel(&m)?;
    let mut it = fresh(input, Interp::with_tier(Tier::Classic));
    let ret = it
        .run(&m, func, &input.args, &mut NullObserver)
        .map_err(trap)?;
    Ok(input.w.checksum(&it, &input.args, ret))
}

/// What an interpreter-only run of a kernel established.
#[derive(Clone, Copy)]
pub struct Reference {
    pub retired: u64,
    pub ret: Option<RtVal>,
    pub interp_ns: u64,
}

/// Run `k` on the interpreter alone into a null observer and check its
/// checksum. `Machine::run_image` does not return the kernel's return
/// value, so the cells check theirs against this run's.
pub fn interp_only(
    ledger: &mut Ledger,
    input: &Input,
    k: &Kernel,
    expected: u64,
) -> Result<Reference, String> {
    let mut it = fresh(input, Interp::new());
    let (ret, interp_ns) = ledger.time("interp.run", || {
        it.run_with_image(Arc::clone(&k.image), k.func, &input.args, &mut NullObserver)
    });
    let ret = ret.map_err(trap)?;
    ledger.events("interp.run", it.retired());
    let got = input.w.checksum(&it, &input.args, ret);
    if got != expected {
        return Err(format!("checksum {got:#x}, oracle {expected:#x}"));
    }
    Ok(Reference {
        retired: it.retired(),
        ret,
        interp_ns,
    })
}

/// The layer name for `machine`'s core kind.
pub fn by_core(machine: &MachineConfig, inorder: &'static str, ooo: &'static str) -> &'static str {
    match machine.core {
        CoreKind::InOrder => inorder,
        CoreKind::OutOfOrder => ooo,
    }
}

/// One timed cell: `k` on a fresh `machine`. Checks the retired count
/// and the checksum against the interpreter-only reference run.
pub fn run_cell(
    ledger: &mut Ledger,
    machine: &MachineConfig,
    input: &Input,
    k: &Kernel,
    reference: &Reference,
    expected: u64,
) -> Result<(SimStats, u64), String> {
    let mut it = fresh(input, Interp::new());
    let mut m = Machine::new(machine.clone());
    let layer = by_core(machine, "sim.cell.inorder", "sim.cell.ooo");
    let (stats, ns) = ledger.time(layer, || {
        m.run_image(Arc::clone(&k.image), k.func, &mut it, &input.args)
    });
    let stats = stats.map_err(trap)?;
    ledger.events(layer, stats.insts.total);
    if stats.insts.total != reference.retired {
        return Err(format!(
            "retired {} instructions, interpreter-only run {}",
            stats.insts.total, reference.retired
        ));
    }
    let got = input.w.checksum(&it, &input.args, reference.ret);
    if got != expected {
        return Err(format!("checksum {got:#x}, oracle {expected:#x}"));
    }
    Ok((stats, ns))
}

/// One timed slice: the first `insts` instructions of `k` on a fresh
/// `machine` (all of `k` if it is shorter). Returns the statistics
/// simulated so far and the host time.
pub fn run_slice(
    ledger: &mut Ledger,
    machine: &MachineConfig,
    input: &Input,
    k: &Kernel,
    insts: u64,
) -> Result<(SimStats, u64), String> {
    let mut it = fresh(input, Interp::new());
    it.set_fuel(insts);
    let mut m = Machine::new(machine.clone());
    let layer = by_core(machine, "sim.slice.inorder", "sim.slice.ooo");
    let (done, ns) = ledger.time(layer, || {
        m.run_image(Arc::clone(&k.image), k.func, &mut it, &input.args)
    });
    match done {
        Ok(_) | Err(Trap::OutOfFuel) => {}
        Err(e) => return Err(trap(e)),
    }
    let stats = m.stats();
    ledger.events(layer, stats.insts.total);
    Ok((stats, ns))
}

/// One demand access or valid software prefetch of a captured stream.
#[derive(Clone, Copy)]
struct MemEv {
    addr: u64,
    pc: u64,
    /// Instructions retired since the previous memory event.
    gap: u32,
    kind: Access,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    Load,
    Store,
    Prefetch,
}

/// The benchmark's own observer: records the memory events of a run.
#[derive(Default)]
struct Capture {
    evs: Vec<MemEv>,
    gap: u32,
}

impl ExecObserver for Capture {
    fn on_event(&mut self, ev: &Event<'_>) {
        self.gap = self.gap.saturating_add(1);
        let (addr, kind) = match ev.kind {
            EventKind::Load { addr, .. } => (addr, Access::Load),
            EventKind::Store { addr, .. } => (addr, Access::Store),
            EventKind::Prefetch { addr, valid: true } => (addr, Access::Prefetch),
            _ => return,
        };
        self.evs.push(MemEv {
            addr,
            pc: ev.pc,
            gap: self.gap,
            kind,
        });
        self.gap = 0;
    }
}

/// Capture the memory events of the first `insts` instructions of `k`.
fn capture(input: &Input, k: &Kernel, insts: u64) -> Result<Vec<MemEv>, String> {
    let mut it = fresh(input, Interp::new());
    it.set_fuel(insts);
    let mut cap = Capture::default();
    match it.run_with_image(Arc::clone(&k.image), k.func, &input.args, &mut cap) {
        Ok(_) | Err(Trap::OutOfFuel) => Ok(cap.evs),
        Err(e) => Err(trap(e)),
    }
}

/// Replay the memory events of the first `insts` instructions of `k`
/// through each machine's `MemSys`, `Tlb` and L1 `Cache` alone. Time
/// advances as on a stall-on-miss core: one issue slot per instruction,
/// plus each load's latency.
pub fn replay_layers(
    ledger: &mut Ledger,
    machines: &[MachineConfig],
    input: &Input,
    k: &Kernel,
    insts: u64,
) -> Result<(), String> {
    let evs = capture(input, k, insts)?;
    let n = evs.len() as u64;
    let memsys_layer = match k.variant {
        Variant::Baseline => "sim.memsys.base",
        Variant::Auto => "sim.memsys.auto",
    };
    for cfg in machines {
        let issue = cfg.issue_interval_ticks();
        let mut mem = MemSys::new(cfg);
        let mut shared = SharedMem::new(cfg);
        ledger.time(memsys_layer, || {
            let mut now = 0u64;
            for e in &evs {
                now += u64::from(e.gap) * issue;
                match e.kind {
                    Access::Load => {
                        now += mem.access(&mut shared, e.addr, now, AccessKind::Read, e.pc)
                    }
                    Access::Store => {
                        mem.access(&mut shared, e.addr, now, AccessKind::Write, e.pc);
                    }
                    Access::Prefetch => mem.prefetch(&mut shared, e.addr, now, e.pc),
                }
            }
            black_box(now)
        });
        ledger.events(memsys_layer, n);

        let mut tlb = Tlb::new(&cfg.tlb);
        ledger.time("sim.tlb", || {
            let mut now = 0u64;
            for e in &evs {
                now += u64::from(e.gap) * issue;
                now = now.max(tlb.translate(e.addr, now));
            }
            black_box(now)
        });
        ledger.events("sim.tlb", n);

        let mut l1 = Cache::new(&cfg.l1);
        let fill = cfg.dram.latency * swpf_sim::TICKS_PER_CYCLE;
        ledger.time("sim.cache", || {
            let mut now = 0u64;
            for e in &evs {
                now += u64::from(e.gap) * issue;
                let write = e.kind == Access::Store;
                if l1.access(e.addr, now, write) == Lookup::Miss {
                    black_box(l1.insert(e.addr, now, now + fill, write));
                }
            }
            black_box(now)
        });
        ledger.events("sim.cache", n);
    }
    Ok(())
}
