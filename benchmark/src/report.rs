//! What a run prints: every metric by name with its unit (and, for the
//! end-to-end ones, bound and sample count), then the one-line JSON result
//! the driver reads.

use crate::config::SETUPS_PER_RUN;
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END};
use crate::run::Report;

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// the run's kind (end-to-end for untraced, per-layer for traced).  A
/// per-layer metric the workload does not exercise reads 0.
pub fn result_line(report: &Report) -> Json {
    let metric = |name: &str, unit: &str| {
        (
            name.to_string(),
            Json::obj([
                ("value", Json::Num(report.values.get(name).unwrap_or(0.0))),
                ("unit", Json::Str(unit.to_string())),
            ]),
        )
    };
    let metrics: Vec<(String, Json)> = if report.config.trace {
        per_layer()
            .iter()
            .map(|m| metric(&m.name, m.unit))
            .collect()
    } else {
        END_TO_END.iter().map(|m| metric(m.name, m.unit)).collect()
    };
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The human-readable report (everything above the result line).
pub fn render(report: &Report) -> String {
    let c = &report.config;
    let rounds: Vec<String> = report.round_s.iter().map(|s| format!("{s:.3}")).collect();
    let mut lines = vec![
        format!(
            "# {} seed={} scale={} trace={} rounds={} ops/round={} (closed loop, 1 client)",
            c.workload.name(),
            c.seed,
            report.scale,
            u8::from(c.trace),
            report.rounds,
            report.ops_per_round
        ),
        format!(
            "# user data {} bytes; file {} pages; pool {} pages; op-stream hash {:016x}",
            report.user_bytes, report.file_pages, report.pool_pages, report.stream_hash
        ),
        format!("# round wall times, s: {}", rounds.join(" ")),
    ];
    lines.extend(
        report
            .routes
            .iter()
            .map(|(kind, route)| format!("# route {kind}: {route}")),
    );
    if let Some(file) = &report.span_file {
        lines.push(format!("# spans written to {}", file.display()));
    }
    lines.extend(report.errors.iter().map(|e| format!("# FAILED: {e}")));
    if c.trace {
        lines.push(format!(
            "{:<44} {:>16} {:<6} {:<7} exact",
            "per-layer metric", "value", "unit", "better"
        ));
        lines.extend(per_layer().iter().map(|m| {
            format!(
                "{:<44} {:>16.4} {:<6} {:<7} {}",
                m.name,
                report.values.get(&m.name).unwrap_or(0.0),
                m.unit,
                m.better,
                if m.exact { "yes" } else { "" }
            )
        }));
    } else {
        lines.push(format!(
            "{:<14} {:>16} {:<6} {:<7} {:<6} samples",
            "end-to-end", "value", "unit", "better", "bound"
        ));
        lines.extend(END_TO_END.iter().map(|m| {
            let samples = match m.name {
                "setup_s" => SETUPS_PER_RUN,
                "ops_per_s" => report.rounds,
                _ => 1,
            };
            format!(
                "{:<14} {:>16.4} {:<6} {:<7} {:<6} {}",
                m.name,
                report.values.get(m.name).unwrap_or(0.0),
                m.unit,
                m.better,
                m.bound,
                samples
            )
        }));
    }
    lines.join("\n") + "\n"
}
