//! Shared helpers for the `paper` binary and the perf benches.
//!
//! `paper` reproduces the dissertation's tables and figures from one
//! registry (`cargo run -p lac-bench --release --bin paper -- fig3_4`);
//! each entry prints the rows/series the paper reports, plus the paper's
//! published values where applicable so the shape comparison is immediate.
//! The perf benches print a table and, with `--json-out <path>`, archive
//! their points for `perf_compare`. `run_all` runs `paper` and every bench.

pub mod json;

/// Value of `--json-out <path>`, if present: the bin prints its table as
/// usual *and* writes the perf points there — one simulation, both
/// artifacts (how `run_all` archives without running a bench twice).
fn json_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json-out" {
            return Some(std::path::PathBuf::from(
                args.next().expect("--json-out takes a path"),
            ));
        }
    }
    None
}

/// Write a bench bin's perf points to the `--json-out <path>`, if given.
/// Panics on an unwritable path — an archive silently missing is worse.
pub fn emit_json(points: json::Json) {
    if let Some(path) = json_out_path() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
        }
        std::fs::write(&path, points.render_pretty())
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    }
}

/// Print a titled table with aligned columns. Panics unless every row has
/// one cell per header.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "{title}: ragged row {row:?}");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (c, &w) in cells.iter().zip(&widths) {
            s.push_str(&format!("{c:<w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Format a float to a sensible number of digits.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.4), "123");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(f(0.1234), "0.123");
        assert_eq!(pct(0.905), "90.5%");
    }
}
