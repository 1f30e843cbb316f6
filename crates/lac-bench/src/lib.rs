//! Shared helpers for the `lac-bench` binary — one registry of the
//! paper's tables and figures (`cargo run --release -p lac-bench -- fig3_4`)
//! and the perf benches (`-- sim_speed --json-out <path>`), with `run_all`
//! and `perf_compare` as subcommands: table rendering, number formatting
//! and the dependency-free JSON the benches' points are written in.

pub mod json;

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
