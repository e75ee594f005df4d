//! Fixed work means repeatable counts: the same seed must give the same op
//! stream and bit-identical *exact* metrics, a different seed a different
//! stream.  Runs are in-process, at `--quick` scale, each in its own
//! scratch directory.

use spgist_benchmark::config::Workload;
use spgist_benchmark::metrics::{per_layer, END_TO_END};
use spgist_benchmark::run::{run, Report, RunConfig};

fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    let report = run(&RunConfig {
        workload,
        seed,
        seconds: 4,
        trace,
        quick: true,
        out: None,
    })
    .expect("the run completes");
    assert!(report.correct, "{workload:?}: {:?}", report.errors);
    assert_eq!(report.failed, 0);
    report
}

#[test]
fn same_seed_same_stream_and_bit_identical_exact_metrics() {
    for workload in Workload::ALL {
        let a = quick(workload, 11, true);
        let b = quick(workload, 11, true);
        assert_eq!(a.stream_hash, b.stream_hash, "{workload:?}");
        assert_eq!(a.attempted, b.attempted, "{workload:?}");
        for metric in per_layer().iter().filter(|m| m.exact) {
            let (va, vb) = (a.values.get(&metric.name), b.values.get(&metric.name));
            assert_eq!(
                va.map(f64::to_bits),
                vb.map(f64::to_bits),
                "{workload:?} {}: {va:?} vs {vb:?}",
                metric.name
            );
        }
        let c = quick(workload, 12, true);
        assert_ne!(
            a.stream_hash, c.stream_hash,
            "{workload:?}: another seed, another stream"
        );
    }
}

#[test]
fn traced_runs_report_exactly_the_catalogue_and_cover_the_measured_wall() {
    for workload in Workload::ALL {
        let report = quick(workload, 5, true);
        let known: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        for name in report.values.names() {
            assert!(
                known.iter().any(|k| k == name),
                "{workload:?} reports unknown metric {name}"
            );
        }
        let coverage = report
            .values
            .get("trace.coverage")
            .expect("coverage is reported");
        assert!(
            (0.95..=1.0).contains(&coverage),
            "{workload:?}: coverage {coverage}"
        );
        assert!(report.values.get("trace.overhead_share").is_some());
        if workload == Workload::QueryHot {
            assert_eq!(
                report.values.get("pager.reads"),
                Some(0.0),
                "hot pool: no reads after warm-up"
            );
            assert!(
                report
                    .values
                    .get("baselines.btree_over_trie_exact")
                    .unwrap()
                    > 0.0
            );
        }
        if workload.writes() {
            assert!(report.values.get("wal.records").unwrap() > 0.0);
            assert!(report.values.get("recovery.records_replayed").unwrap() > 0.0);
            assert!(report.values.get("checkpoint.count").unwrap() > 0.0);
        }
    }
}

#[test]
fn cost_ratios_repeat_with_the_seed() {
    for workload in [Workload::QueryHot, Workload::Ingest] {
        let a = quick(workload, 21, false);
        let b = quick(workload, 21, false);
        for metric in END_TO_END {
            assert!(
                a.values.get(metric.name).unwrap() > 0.0,
                "{workload:?} {}",
                metric.name
            );
        }
        // Bytes on disk after the final checkpoint are a pure function of
        // the work done.
        assert_eq!(
            a.values.get("space_amp"),
            b.values.get("space_amp"),
            "{workload:?}"
        );
        // Bytes written differ only by group-commit batch seals, whose
        // number depends on how the flusher's wake-ups fall.
        let (wa, wb) = (
            a.values.get("write_amp").unwrap(),
            b.values.get("write_amp").unwrap(),
        );
        assert!(
            (wa - wb).abs() / wa < 0.01,
            "{workload:?}: write_amp {wa} vs {wb}"
        );
    }
}
