//! Tables 2, 3 and 5: dataset summaries and the cost model.

use supg_core::cost::CostModel;
use supg_core::{SelectorKind, SupgSession};
use supg_datasets::{Preset, PresetKind};

use super::ExpContext;
use crate::report::{pct, TextTable};
use crate::workload::Workload;

/// Table 2: the six evaluation datasets with sizes and true-positive rates.
pub fn table2(ctx: &ExpContext) -> String {
    let mut table = TextTable::new(vec![
        "dataset",
        "records",
        "positives",
        "TPR",
        "oracle budget",
        "task (simulated)",
    ]);
    for preset in Preset::all_main() {
        let w = Workload::from_preset(preset, ctx.seed, ctx.scale);
        table.row(vec![
            w.name.clone(),
            w.len().to_string(),
            w.positives().to_string(),
            pct(w.true_positive_rate()),
            w.budget.to_string(),
            preset.description().to_owned(),
        ]);
    }
    let _ = table.write_csv(&ctx.out_dir, "table2");
    let mut out = String::from("Table 2: dataset, oracle and proxy summary\n\n");
    out.push_str(&table.render());
    out.push_str("\nPaper TPRs: ImageNet 0.1%, night-street 4%, OntoNotes 2.5%, TACRED 2.4%,\nBeta synthetics ~1%/~0.5% (the means of Beta(0.01,1) and Beta(0.01,2)).\n");
    out
}

/// Table 3: the distributionally shifted datasets.
pub fn table3(ctx: &ExpContext) -> String {
    let mut table = TextTable::new(vec![
        "dataset",
        "shifted dataset",
        "TPR",
        "separation before",
        "separation after",
        "description",
    ]);
    for (train, shifted) in Preset::drift_pairs() {
        let base = Workload::from_preset(train, ctx.seed, ctx.scale);
        let drifted = Workload::from_preset(shifted, ctx.seed, ctx.scale);
        let sep = |w: &Workload| {
            let mut pos_sum = 0.0;
            let mut pos_n = 0usize;
            let mut neg_sum = 0.0;
            for (i, &l) in w.labels.iter().enumerate() {
                if l {
                    pos_sum += w.data.score(i);
                    pos_n += 1;
                } else {
                    neg_sum += w.data.score(i);
                }
            }
            let neg_n = w.len() - pos_n;
            pos_sum / pos_n.max(1) as f64 - neg_sum / neg_n.max(1) as f64
        };
        table.row(vec![
            base.name.clone(),
            drifted.name.clone(),
            pct(drifted.true_positive_rate()),
            format!("{:.3}", sep(&base)),
            format!("{:.3}", sep(&drifted)),
            shifted.description().to_owned(),
        ]);
    }
    let _ = table.write_csv(&ctx.out_dir, "table3");
    let mut out = String::from("Table 3: distributionally shifted datasets\n\n");
    out.push_str(&table.render());
    out
}

/// Table 5: cost of SUPG query processing vs proxy/oracle execution vs
/// exhaustive labeling. Sampling time is measured on this machine; dollar
/// figures use the paper's pricing (Scale API $0.08/label, p3.2xlarge
/// $3.06/hour).
pub fn table5(ctx: &ExpContext) -> String {
    let mut table = TextTable::new(vec![
        "dataset",
        "sampling ($)",
        "proxy ($)",
        "oracle ($)",
        "SUPG total ($)",
        "exhaustive oracle ($)",
        "savings",
    ]);
    let rows: Vec<(PresetKind, CostModel)> = vec![
        (PresetKind::NightStreet, CostModel::paper_dnn_oracle()),
        (PresetKind::ImageNet, CostModel::paper_human_oracle()),
        (PresetKind::OntoNotes, CostModel::paper_human_oracle()),
        (PresetKind::Tacred, CostModel::paper_human_oracle()),
    ];
    for (kind, model) in rows {
        let w = Workload::from_preset(Preset::new(kind), ctx.seed, ctx.scale);
        // Measure the actual query-processing time of one SUPG query: the
        // session's per-stage accounting includes elapsed wall-clock time.
        let mut oracle = w.oracle(w.budget);
        let outcome = SupgSession::over(&*w.prepared)
            .recall(0.9)
            .delta(0.05)
            .budget(w.budget)
            .selector(SelectorKind::ImportanceSampling)
            .selector_config(ctx.selector_config())
            .seed(ctx.seed)
            .run(&mut oracle)
            .expect("cost query failed");
        let sampling_seconds = outcome.elapsed.as_secs_f64();
        // Cost the paper-scale dataset regardless of ctx.scale so figures
        // are comparable to Table 5.
        let full_n = Preset::new(kind).default_size();
        let b = model.breakdown(full_n, outcome.oracle_calls, sampling_seconds);
        table.row(vec![
            w.name.clone(),
            format!("{:.2e}", b.sampling),
            format!("{:.3}", b.proxy),
            format!("{:.2}", b.oracle),
            format!("{:.2}", b.total),
            format!("{:.0}", b.exhaustive_oracle),
            format!("{:.0}x", b.savings_factor()),
        ]);
    }
    let _ = table.write_csv(&ctx.out_dir, "table5");
    let mut out = String::from(
        "Table 5: query cost breakdown (paper pricing; sampling time measured here)\n\n",
    );
    out.push_str(&table.render());
    out.push_str("\nExpected shape (paper): query processing orders of magnitude below the\nproxy cost, which is itself far below the oracle cost; SUPG total is\n~30-100x cheaper than exhaustive oracle labeling.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_datasets() {
        let mut ctx = ExpContext::quick();
        ctx.scale = 0.01;
        ctx.out_dir = std::env::temp_dir().join("supg_table2_test");
        let report = table2(&ctx);
        for name in [
            "ImageNet",
            "night-street",
            "OntoNotes",
            "TACRED",
            "Beta(0.01, 1.0)",
        ] {
            assert!(report.contains(name), "{name} missing");
        }
    }

    #[test]
    fn table5_reports_savings() {
        let mut ctx = ExpContext::quick();
        ctx.scale = 0.01;
        ctx.out_dir = std::env::temp_dir().join("supg_table5_test");
        let report = table5(&ctx);
        assert!(report.contains("x"), "{report}");
    }
}
