//! The compile path: build → pass pipeline → verify → decode → lower,
//! and the isolated analysis and pass calls of the traced ledger.

use crate::util::{Ledger, Rng};
use swpf_analysis::{DomTree, IvAnalysis, LoopForest};
use swpf_core::PassConfig;
use swpf_ir::exec::ExecImage;
use swpf_ir::verifier::verify_module;
use swpf_ir::{BcImage, FuncId, Module};
use swpf_pass::{AnalysisManager, Dce, FunctionPass, Gvn, Licm, PassManager, Sccp};
use swpf_workloads::Workload;

/// The two pipelines a candidate is compiled with: the paper's bare
/// prefetch pass, and the pass followed by the global cleanup passes.
const PIPELINES: [&str; 2] = ["swpf", "swpf,gvn,sccp,licm,dce"];

/// Look-ahead distances in ~1.25x steps from 2 to 256: the axis a
/// distance tuner searches.
const LOOK_AHEADS: [i64; 21] = [
    2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100, 128, 160, 200, 256,
];

/// `per_pipeline` distinct look-ahead distances for each pipeline,
/// drawn by `rng`. Both pipelines get the same number of configs, so
/// every seed compiles the same mix of pipelines.
pub fn sample_configs(rng: &mut Rng, per_pipeline: usize) -> Vec<PassConfig> {
    let mut out = Vec::new();
    for spec in PIPELINES {
        let mut axis = LOOK_AHEADS.to_vec();
        rng.shuffle(&mut axis);
        for &c in &axis[..per_pipeline] {
            out.push(PassConfig {
                look_ahead: c,
                ..PassConfig::with_pipeline(spec)
            });
        }
    }
    out
}

/// A compiled kernel.
pub struct Compiled {
    pub func: FuncId,
    pub image: ExecImage,
    /// Static instructions of the output module.
    pub code_insts: usize,
}

/// The entry function every workload kernel module defines.
pub fn kernel(m: &Module) -> Result<FuncId, String> {
    m.find_function("kernel")
        .ok_or_else(|| "module has no `kernel` function".to_string())
}

/// One compile op: build the baseline kernel, run `config`'s pipeline
/// on it (none for the baseline variant), verify the output, decode it
/// and lower it to bytecode. Each stage is one call into its layer.
pub fn compile_op(
    ledger: &mut Ledger,
    w: &dyn Workload,
    config: Option<&PassConfig>,
) -> Result<Compiled, String> {
    let (mut module, _) = ledger.time("ir.build", || w.build_baseline());
    if let Some(c) = config {
        ledger.time("core.pipeline", || swpf_core::run_on_module(&mut module, c));
    }
    ledger
        .time("ir.verify", || verify_module(&module))
        .0
        .map_err(|e| format!("output does not verify: {e}"))?;
    let (image, _) = ledger.time("ir.decode", || ExecImage::build(&module));
    ledger
        .time("ir.lower", || BcImage::lower(&image))
        .0
        .map_err(|e| format!("bytecode lowering failed: {e}"))?;
    let func = kernel(&module)?;
    let code_insts = module
        .func_ids()
        .map(|f| module.function(f).num_placed_insts())
        .sum();
    Ok(Compiled {
        func,
        image,
        code_insts,
    })
}

/// What the isolated pass calls of one kernel did.
#[derive(Default)]
pub struct Isolated {
    pub prefetch_sites: u64,
    pub removed_insts: u64,
}

/// The traced ledger's isolated calls on one workload kernel: each
/// analysis on the pass input, the prefetch pass alone, and each
/// cleanup pass alone on the prefetch pass's output (every output must
/// still verify).
pub fn isolate(ledger: &mut Ledger, w: &dyn Workload, look_ahead: i64) -> Result<Isolated, String> {
    let base = w.build_baseline();
    let f = base.function(kernel(&base)?);
    let (dom, _) = ledger.time("analysis.dom", || DomTree::compute(f));
    let (loops, _) = ledger.time("analysis.loops", || LoopForest::compute(f, &dom));
    ledger.time("analysis.indvar", || IvAnalysis::compute(f, &loops));

    let mut prefetched = base.clone();
    let config = PassConfig::with_look_ahead(look_ahead);
    let (report, _) = ledger.time("core.swpf", || {
        swpf_core::run_on_module(&mut prefetched, &config)
    });
    let mut out = Isolated {
        prefetch_sites: report.total_prefetches() as u64,
        ..Isolated::default()
    };
    let passes: [(&'static str, Box<dyn FunctionPass>); 4] = [
        ("pass.gvn", Box::new(Gvn::default())),
        ("pass.sccp", Box::new(Sccp::default())),
        ("pass.licm", Box::new(Licm::default())),
        ("pass.dce", Box::new(Dce::default())),
    ];
    for (layer, pass) in passes {
        let mut m = prefetched.clone();
        let mut pm = PassManager::new();
        pm.add_function_pass(pass);
        let mut am = AnalysisManager::new();
        let (runs, _) = ledger.time(layer, || pm.run(&mut m, &mut am));
        let runs = runs.map_err(|e| format!("{layer}: {e}"))?;
        out.removed_insts += runs.iter().map(|r| r.removed_insts as u64).sum::<u64>();
        verify_module(&m).map_err(|e| format!("{layer} output does not verify: {e}"))?;
    }
    Ok(out)
}
