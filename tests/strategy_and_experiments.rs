//! Integration: strategy selection against the paper's model profiles,
//! plus smoke checks that every experiment harness regenerates its
//! table/figure.

use swift::core::{select_strategy, JobShape, Strategy};
use swift::dnn::profile::{all_models, RecoveryFamily, TESTBED};
use swift::wal::{cnn_pipeline_profile, evaluate_usecase};

#[test]
fn paper_models_route_to_the_paper_strategies() {
    // §7.1: replication for Wide-ResNet-50, logging for ViT/BERT.
    for model in all_models() {
        let report = evaluate_usecase(&model, &TESTBED);
        let shape = JobShape {
            cross_machine_replica: model.family == RecoveryFamily::Replication,
            cross_machine_pipeline: model.stages_per_machine > 0,
            logging_worth_it: report.worth_logging,
        };
        let strategy = select_strategy(shape);
        match model.family {
            RecoveryFamily::Replication => {
                assert_eq!(strategy, Strategy::Replication, "{}", model.name)
            }
            RecoveryFamily::Logging => {
                assert_eq!(strategy, Strategy::Logging, "{}", model.name)
            }
        }
    }
}

#[test]
fn hypothetical_cnn_pipeline_falls_back_to_checkpointing() {
    let cnn = cnn_pipeline_profile();
    let report = evaluate_usecase(&cnn, &TESTBED);
    let strategy = select_strategy(JobShape {
        cross_machine_replica: false,
        cross_machine_pipeline: true,
        logging_worth_it: report.worth_logging,
    });
    assert_eq!(strategy, Strategy::GlobalCheckpointOnly);
}

/// Every cheap experiment harness produces a non-trivial report containing
/// its identifying content. (fig11 — the real-training experiment — is
/// covered by `fig11_accuracy_experiment` below.)
#[test]
fn experiment_harnesses_regenerate_reports() {
    type Check = (&'static str, fn() -> String, &'static str);
    let checks: &[Check] = &[
        (
            "fig01",
            swift_bench::experiments::fig01_schedule,
            "bubble ratio",
        ),
        (
            "fig03",
            swift_bench::experiments::fig03_throughput_timeline,
            "checkfreq",
        ),
        (
            "table1",
            swift_bench::experiments::table1_operators,
            "AMSGrad",
        ),
        (
            "fig08a",
            swift_bench::experiments::fig08a_replication,
            "swift-replication",
        ),
        ("fig08b", swift_bench::experiments::fig08b_vit, "ViT-128/32"),
        ("fig08c", swift_bench::experiments::fig08c_bert, "BERT-128"),
        (
            "fig09",
            swift_bench::experiments::fig09_recovery_timeline,
            "recovery",
        ),
        (
            "table3",
            swift_bench::experiments::table3_logging_volume,
            "24.66",
        ),
        ("fig10", swift_bench::experiments::fig10_tradeoff, "storage"),
        (
            "table4",
            swift_bench::experiments::table4_workloads,
            "479.4",
        ),
        (
            "fig12",
            swift_bench::experiments::fig12_ckpt_freq,
            "interval",
        ),
        (
            "fig13",
            swift_bench::experiments::fig13_failure_freq,
            "MTBF",
        ),
        (
            "table6",
            swift_bench::experiments::table6_grouping_bert,
            "BERT-128",
        ),
        (
            "table7",
            swift_bench::experiments::table7_grouping_vit,
            "ViT-128/32",
        ),
    ];
    for (name, f, needle) in checks {
        let report = f();
        assert!(report.len() > 100, "{name} report too short");
        assert!(
            report.contains(needle),
            "{name} report missing '{needle}':\n{report}"
        );
    }
}

#[test]
fn table5_simulation_reproduces_speedup_ordering() {
    let report = swift_bench::experiments::table5_end_to_end();
    assert!(report.contains("Wide-ResNet-50"));
    assert!(report.contains("speedup"));
}

#[test]
fn fig11_accuracy_experiment() {
    // The real-training Fig. 11 harness: both sub-experiments must report
    // matching accuracies and the pipeline states must be bit-identical.
    let report = swift_bench::experiments::fig11_accuracy();
    assert!(
        report.contains("states bitwise identical: true"),
        "{report}"
    );
}
