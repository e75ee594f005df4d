//! `compare BASE_DIR NEW_DIR`: holds two sets of untraced runs against the
//! bounds of `BENCHMARK.json`, one row per workload × end-to-end metric.
//!
//! A directory holds result files named `<workload>.<anything>.json`, each
//! ending in the one-line JSON result a run prints (so `… > file` and
//! `… | tail -n 1 > file` both work).

use std::collections::BTreeMap;
use std::path::Path;

use crate::config::Workload;
use crate::json::Json;
use crate::stats::{quartiles, spread};

/// Verdict of one workload × metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base median by more than the
    /// bound, and both sides are steadier than the bound.
    Ok,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// A side's run-to-run spread (interquartile range ÷ median) is wider
    /// than the bound, so the medians cannot be told apart at that bound.
    Unresolved,
}

impl Verdict {
    /// Spelling in the table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` for a metric where `better` is `"lower"` or
/// `"higher"`.
pub fn judge(base: &[f64], new: &[f64], better: &str, bound: f64) -> Verdict {
    let (base_median, new_median) = (quartiles(base).1, quartiles(new).1);
    let worse_by = match better {
        "higher" => (base_median - new_median) / base_median.abs(),
        _ => (new_median - base_median) / base_median.abs(),
    };
    if spread(base) > bound || spread(new) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `metric name → values`, per workload, of the result files in `dir`.
type Samples = BTreeMap<(usize, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Samples, String> {
    let mut samples = Samples::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    files.sort();
    for file in files {
        let Some(name) = file.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(".json") {
            continue;
        }
        let Some(workload) = Workload::ALL.iter().position(|w| {
            name.strip_prefix(w.name())
                .is_some_and(|rest| rest.starts_with('.'))
        }) else {
            continue;
        };
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let result = Json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{}: the run was not correct", file.display()));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", file.display()))?;
        for (metric, value) in metrics {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload, metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

struct Bound {
    name: String,
    better: String,
    bound: f64,
}

fn bounds(manifest: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", manifest.display()))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                better: m.get("better")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", manifest.display()))
}

fn five(values: &[f64]) -> String {
    let (q1, med, q3) = quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{min:.4} / {q1:.4} / **{med:.4}** / {q3:.4} / {max:.4}")
}

/// The comparison as a markdown table, and whether any cell regressed.
pub fn compare(base_dir: &Path, new_dir: &Path, manifest: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(manifest)?;
    let base = load(base_dir)?;
    let new = load(new_dir)?;
    let mut regressed = false;
    let mut lines = vec![
        "| workload | metric | n | base min / q1 / **median** / q3 / max | new min / q1 / **median** / q3 / max | median change | spread base, new | bound | verdict |".to_string(),
        "|---|---|---|---|---|---|---|---|---|".to_string(),
    ];
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for bound in &bounds {
            let key = (w, bound.name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let verdict = judge(b, n, &bound.better, bound.bound);
            regressed |= verdict == Verdict::Regressed;
            let (bm, nm) = (quartiles(b).1, quartiles(n).1);
            lines.push(format!(
                "| {} | {} | {}, {} | {} | {} | {:+.2} % | {:.2} %, {:.2} % | {:.0} % | {} |",
                workload.name(),
                bound.name,
                b.len(),
                n.len(),
                five(b),
                five(n),
                (nm - bm) / bm.abs() * 100.0,
                spread(b) * 100.0,
                spread(n) * 100.0,
                bound.bound * 100.0,
                verdict.name()
            ));
        }
    }
    Ok((lines.join("\n") + "\n", regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 100.5, 99.5, 100.0];
        let slower = [112.0, 113.0, 112.5, 111.5, 112.0];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&steady, &steady, "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, "lower", 0.10), Verdict::Regressed);
        // The same change is an improvement when higher is better.
        assert_eq!(judge(&steady, &slower, "higher", 0.10), Verdict::Ok);
        assert_eq!(judge(&slower, &steady, "higher", 0.10), Verdict::Regressed);
        // Within the bound.
        assert_eq!(judge(&steady, &slower, "lower", 0.15), Verdict::Ok);
        // A side noisier than the bound decides nothing.
        assert_eq!(judge(&steady, &noisy, "lower", 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &slower, "lower", 0.10), Verdict::Unresolved);
    }

    #[test]
    fn compares_two_directories_of_result_files() {
        let dir = crate::run::scratch_dir("compare").unwrap();
        let (base, new) = (dir.join("base"), dir.join("new"));
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&new).unwrap();
        let manifest = dir.join("BENCHMARK.json");
        std::fs::write(
            &manifest,
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let result = |ops: f64| {
            format!(
                "# a report line\n{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}\n"
            )
        };
        for (i, ops) in [1000.0, 1010.0, 990.0, 1005.0, 995.0].iter().enumerate() {
            std::fs::write(base.join(format!("ingest.seed{i}.json")), result(*ops)).unwrap();
            std::fs::write(new.join(format!("ingest.seed{i}.json")), result(ops * 0.8)).unwrap();
            std::fs::write(base.join(format!("query-hot.seed{i}.json")), result(*ops)).unwrap();
            std::fs::write(
                new.join(format!("query-hot.seed{i}.json")),
                result(ops * 1.01),
            )
            .unwrap();
        }
        let (table, regressed) = compare(&base, &new, &manifest).unwrap();
        assert!(regressed);
        let row = |w: &str| {
            table
                .lines()
                .find(|l| l.starts_with(&format!("| {w} | ops_per_s")))
                .unwrap()
        };
        assert!(row("ingest").ends_with("| regressed |"), "{table}");
        assert!(row("query-hot").ends_with("| ok |"), "{table}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
