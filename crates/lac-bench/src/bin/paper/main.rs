//! Every reproduced table and figure of the dissertation, from one binary.
//!
//! Each generator is a registry entry: a name (`fig3_4`, `table5_1`, …)
//! and a function that returns its tables. `paper fig4_2 table3_1` prints
//! the named entries; `paper` alone prints all of them in name order. An
//! unknown name exits non-zero and lists the valid ones. There are no
//! flags.

mod app_a;
mod app_b;
mod ch3;
mod ch4;
mod ch5;
mod ch6;
mod workloads;

/// One printed table: the title, headers and rows `lac_bench::table`
/// renders, a line printed right under it, and a closing note — the
/// paper's published value or shape, printed after a blank line.
struct Table {
    title: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
    footer: Option<String>,
    note: Option<&'static str>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &[&'static str], rows: Vec<Vec<String>>) -> Self {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            rows,
            footer: None,
            note: None,
        }
    }

    fn footer(self, line: String) -> Self {
        Table {
            footer: Some(line),
            ..self
        }
    }

    fn note(self, note: &'static str) -> Self {
        Table {
            note: Some(note),
            ..self
        }
    }

    fn print(&self) {
        lac_bench::table(&self.title, &self.headers, &self.rows);
        if let Some(line) = &self.footer {
            println!("{line}");
        }
        if let Some(note) = self.note {
            println!("\n{note}");
        }
    }
}

/// A generator: the tables one figure or table of the paper reproduces.
type Generator = fn() -> Vec<Table>;

/// Every entry, sorted by name. The function is the name lowercased.
const REGISTRY: &[(&str, Generator)] = &[
    ("fig3_4", ch3::fig3_4),
    ("fig3_5", ch3::fig3_5),
    ("fig3_6", ch3::fig3_6),
    ("fig3_7", ch3::fig3_7),
    ("fig4_11_12", ch4::fig4_11_12),
    ("fig4_13", ch4::fig4_13),
    ("fig4_14", ch4::fig4_14),
    ("fig4_15", ch4::fig4_15),
    ("fig4_16", ch4::fig4_16),
    ("fig4_2", ch4::fig4_2),
    ("fig4_3", ch4::fig4_3),
    ("fig4_5", ch4::fig4_5),
    ("fig4_6", ch4::fig4_6),
    ("fig4_7", ch4::fig4_7),
    ("fig4_8", ch4::fig4_8),
    ("fig4_9_10", ch4::fig4_9_10),
    ("fig5_10", ch5::fig5_10),
    ("fig5_8", ch5::fig5_8),
    ("fig5_9", ch5::fig5_9),
    ("fig6_5", ch6::fig6_5),
    ("fig6_6", ch6::fig6_6),
    ("fig6_7", ch6::fig6_7),
    ("fig6_9", ch6::fig6_9),
    ("figB_11_12_13", app_b::figb_11_12_13),
    ("figB_5", app_b::figb_5),
    ("figB_6", app_b::figb_6),
    ("figB_7", app_b::figb_7),
    ("sec4_3_validation", ch4::sec4_3_validation),
    ("table3_1", ch3::table3_1),
    ("table3_2", ch3::table3_2),
    ("table4_1", ch4::table4_1),
    ("table4_2", ch4::table4_2),
    ("table4_3", ch4::table4_3),
    ("table5_1", ch5::table5_1),
    ("table6_1", ch6::table6_1),
    ("table6_2", ch6::table6_2),
    ("tableA_2", app_a::tablea_2),
    ("tableB_1", app_b::tableb_1),
    ("tableB_2", app_b::tableb_2),
    ("workloads", workloads::workloads),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut picked = Vec::new();
    for name in &names {
        match REGISTRY.iter().find(|(n, _)| n == name) {
            Some(&(_, generator)) => picked.push(generator),
            None => {
                let valid: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "unknown entry {name:?}; valid names:\n  {}",
                    valid.join("\n  ")
                );
                std::process::exit(2);
            }
        }
    }
    if names.is_empty() {
        picked = REGISTRY.iter().map(|&(_, generator)| generator).collect();
    }
    for generator in picked {
        for table in generator() {
            table.print();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        assert!(REGISTRY.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn every_entry_renders_finite_nonempty_tables() {
        for (name, generator) in REGISTRY {
            let tables = generator();
            assert!(!tables.is_empty(), "{name}: no table");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name}: {:?} has no rows", t.title);
                for cell in t.rows.iter().flatten() {
                    let non_finite = cell
                        .split(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                        .any(|word| word.parse::<f64>().is_ok_and(|x| !x.is_finite()));
                    assert!(!non_finite, "{name}: {:?} has cell {cell:?}", t.title);
                }
                t.print();
            }
        }
    }
}
