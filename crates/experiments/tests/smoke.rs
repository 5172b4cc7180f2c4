//! Every paper table and figure runs end to end at reduced scale, so no
//! harness behind `supg-repro <id>` can rot unnoticed.

use supg_experiments::{list_experiments, run_experiment, ExpContext};

#[test]
fn every_listed_experiment_runs() {
    let mut ctx = ExpContext::quick();
    ctx.trials = 5;
    ctx.sweep_trials = 2;
    ctx.scale = 0.01;
    ctx.out_dir =
        std::env::temp_dir().join(format!("supg_experiments_smoke_{}", std::process::id()));
    for (id, title) in list_experiments() {
        assert!(
            run_experiment(id, &ctx).is_some(),
            "{id} ({title}) returned no report"
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
}
