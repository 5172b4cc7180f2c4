//! Figure 15 (appendix A): joint-target queries — total oracle usage of the
//! JT pipeline with uniform vs importance RT subroutines.

use supg_core::{SelectorKind, SupgSession};
use supg_datasets::{Preset, PresetKind};

use super::ExpContext;
use crate::report::{mean, pct, TextTable};
use crate::trials::derive_seed;
use crate::workload::Workload;

/// Figure 15: joint recall+precision targets vs oracle calls consumed.
pub fn fig15(ctx: &ExpContext) -> String {
    let presets = [
        PresetKind::ImageNet,
        PresetKind::NightStreet,
        PresetKind::Beta01x1,
        PresetKind::Beta01x2,
    ];
    let targets = [0.5, 0.6, 0.7, 0.75, 0.8, 0.9];
    let cfg = ctx.selector_config();
    let mut table = TextTable::new(vec![
        "dataset",
        "joint target",
        "U-CI oracle calls",
        "SUPG oracle calls",
    ]);
    // JT's exhaustive filter makes trials relatively expensive; a handful
    // per point matches the paper's smooth curves well enough.
    let trials = ctx.sweep_trials.clamp(2, 5);
    for kind in presets {
        let w = Workload::from_preset(Preset::new(kind), ctx.seed, ctx.scale);
        let stage_budget = w.budget;
        for &gamma in &targets {
            let calls = |selector: SelectorKind, salt: u64| -> f64 {
                let totals: Vec<f64> = (0..trials)
                    .map(|t| {
                        let mut oracle = w.oracle(0);
                        let out = SupgSession::over(&*w.prepared)
                            .recall(gamma)
                            .precision(gamma)
                            .delta(0.05)
                            .joint(stage_budget)
                            .selector(selector)
                            .selector_config(cfg)
                            .seed(derive_seed(ctx.seed ^ salt, t as u64))
                            .run(&mut oracle)
                            .expect("JT execution failed");
                        out.oracle_calls as f64
                    })
                    .collect();
                mean(&totals)
            };
            let u = calls(SelectorKind::Uniform, 0x15A);
            let s = calls(SelectorKind::ImportanceSampling, 0x15B);
            table.row(vec![
                w.name.clone(),
                pct(gamma),
                format!("{u:.0}"),
                format!("{s:.0}"),
            ]);
        }
    }
    let _ = table.write_csv(&ctx.out_dir, "fig15");
    let mut out = String::from(
        "Figure 15: joint-target queries — mean total oracle calls (lower is better)\n\n",
    );
    out.push_str(&table.render());
    out.push_str("\nExpected shape (paper): SUPG's RT stage returns smaller candidate\nsets, so the exhaustive filter — and therefore the total — is cheaper\nthan with uniform sampling, especially at high targets.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_runs_at_tiny_scale() {
        let mut ctx = ExpContext::quick();
        ctx.sweep_trials = 2;
        ctx.scale = 0.005;
        ctx.out_dir = std::env::temp_dir().join("supg_fig15_test");
        let report = fig15(&ctx);
        assert!(report.contains("ImageNet"));
        assert!(report.contains("oracle calls"));
    }
}
