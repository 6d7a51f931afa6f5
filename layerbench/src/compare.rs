//! `compare`: two sets of run records side by side.
//!
//! Each side is a directory of the records runs write under
//! `out/results/`. For every workload and end-to-end metric the mode
//! prints each side's median and quartiles and the change of the median,
//! judged against the metric's bound from `BENCHMARK.json`: a change worse
//! than the bound is a regression, and a metric whose spread on either side
//! (quartile distance over median) is wider than the bound is unresolved.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `(workload, metric) → values`, from the untraced records of one side.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn read_side(dir: &Path) -> Result<Side, String> {
    let mut side = Side::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = serde_json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        if record.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let Some(Value::Str(workload)) = record.get("workload") else {
            return Err(format!("{}: no workload", path.display()));
        };
        let Some(Value::Object(metrics)) = record.get("result").and_then(|r| r.get("metrics"))
        else {
            return Err(format!("{}: no metrics", path.display()));
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(number) {
                side.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let n = v.len() as f64;
    let at = |q: f64| {
        let pos = q * (n + 1.0);
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.5), at(0.75))
}

/// `name → (lower is better, bound)` from the end-to-end list.
fn bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let Some(Value::Array(list)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    list.iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("metric without a name".to_string()),
            };
            let lower = m.get("better") == Some(&Value::Str("lower".to_string()));
            let bound = m
                .get("bound")
                .and_then(number)
                .ok_or("metric without a bound")?;
            Ok((name, (lower, bound)))
        })
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let (a, b, benchmark) = match args {
        [a, b] => (a, b, "BENCHMARK.json".to_string()),
        [a, b, flag, file] if flag == "--benchmark" => (a, b, file.clone()),
        _ => {
            eprintln!("usage: layerbench compare <dir-a> <dir-b> [--benchmark <file>]");
            return ExitCode::from(2);
        }
    };
    let loaded = (|| {
        Ok::<_, String>((
            read_side(Path::new(a))?,
            read_side(Path::new(b))?,
            bounds(Path::new(&benchmark))?,
        ))
    })();
    let (side_a, side_b, bounds) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{:<14} {:<12} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>9}  verdict",
        "workload",
        "metric",
        "n_a",
        "q1_a",
        "median_a",
        "q3_a",
        "n_b",
        "q1_b",
        "median_b",
        "q3_b",
        "change"
    );
    let mut regressions = 0;
    for ((workload, metric), values_a) in &side_a {
        let Some(values_b) = side_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(&(lower, bound)) = bounds.get(metric) else {
            continue;
        };
        let (q1a, ma, q3a) = quartiles(values_a);
        let (q1b, mb, q3b) = quartiles(values_b);
        let change = (mb - ma) / ma;
        let worse = if lower { change } else { -change };
        let spread = ((q3a - q1a) / ma).max((q3b - q1b) / mb);
        let verdict = if worse > bound && spread > bound {
            "unresolved (worse, spread above bound)"
        } else if worse > bound {
            regressions += 1;
            "REGRESSION"
        } else if spread > bound {
            "unresolved (spread above bound)"
        } else if -worse > bound {
            "improved"
        } else {
            "within bound"
        };
        println!(
            "{workload:<14} {metric:<12} {:>4} {q1a:>12.4} {ma:>12.4} {q3a:>12.4} {:>4} {q1b:>12.4} {mb:>12.4} {q3b:>12.4} {:>8.2}%  {verdict}",
            values_a.len(),
            values_b.len(),
            100.0 * change
        );
    }
    println!("{regressions} regression(s)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
