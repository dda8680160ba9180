//! EXPERIMENTS.md against `results/all.txt`: every headline number the
//! write-up quotes for Figures 3, 4, 5, 8, 9 and 12, Tables 5 and 6 and
//! the Section 7.1 related-work comparison must be the cell the pinned
//! full-length run printed.
//!
//! Each row of [`QUOTES`] is a quote from EXPERIMENTS.md with `{}`
//! holes and the `results/all.txt` cells that fill them, named by
//! (section title, row label, column header). The test renders the
//! quote from the cells and requires EXPERIMENTS.md to contain it. A
//! doc edit that drifts from the output, or a re-blessed output the doc
//! was not updated for, fails with the section and cells named.

use std::ops::Range;

/// A cell of `results/all.txt`: the section's title prefix, the row
/// label and the column header.
type Cell = (&'static str, &'static str, &'static str);

const FIG4_CINT: &str = "Figure 4 (bottom)";
const FIG4_CFP: &str = "Figure 4 (top)";
const FIG5: &str = "Figure 5:";
const FIG3: &str = "Figure 3:";
const FIG8: &str = "Figure 8:";
const FIG9: &str = "Figure 9:";
const TAB5: &str = "Table 5:";
const TAB6: &str = "Table 6:";
const FIG12_D32: &str = "Figure 12: D$ miss-rate reductions, 32 kB";
const FIG12_I32: &str = "Figure 12: I$ miss-rate reductions, 32 kB";
const FIG12_D8: &str = "Figure 12: D$ miss-rate reductions, 8 kB";
const FIG12_I8: &str = "Figure 12: I$ miss-rate reductions, 8 kB";
const SEC71: &str = "Section 7.1:";

/// The quoted cells. In a quote, `{}` is a cell as printed and `{n}` the
/// same cell without its `%` sign.
const QUOTES: &[(&str, &[Cell])] = &[
    // Figure 4: the `Ave` rows, CINT then CFP.
    (
        "| 2-way | ~15–20% | {} / {} |",
        &[(FIG4_CINT, "Ave", "2way"), (FIG4_CFP, "Ave", "2way")],
    ),
    (
        "| 4-way | ~30% | {} / {} |",
        &[(FIG4_CINT, "Ave", "4way"), (FIG4_CFP, "Ave", "4way")],
    ),
    (
        "| 8-way | ~38–40% | {} / {} |",
        &[(FIG4_CINT, "Ave", "8way"), (FIG4_CFP, "Ave", "8way")],
    ),
    (
        "| 32-way | +1% over 8-way (perlbmk +20%) | {} / {} (",
        &[(FIG4_CINT, "Ave", "32way"), (FIG4_CFP, "Ave", "32way")],
    ),
    (
        "| victim16 | B-Cache beats it by 13.6% / 20.7% | {} / {} (",
        &[
            (FIG4_CINT, "Ave", "victim16"),
            (FIG4_CFP, "Ave", "victim16"),
        ],
    ),
    (
        "| {n}→{n}→{} / {n}→{n}→{} |",
        &[
            (FIG4_CINT, "Ave", "MF2-BAS8"),
            (FIG4_CINT, "Ave", "MF4-BAS8"),
            (FIG4_CINT, "Ave", "MF8-BAS8"),
            (FIG4_CFP, "Ave", "MF2-BAS8"),
            (FIG4_CFP, "Ave", "MF4-BAS8"),
            (FIG4_CFP, "Ave", "MF8-BAS8"),
        ],
    ),
    // Figure 5: the `Ave` staircase.
    (
        "| B-Cache MF2→4→8 | 33.2→53.4→64.7% | {n}→{n}→{} |",
        &[
            (FIG5, "Ave", "MF2-BAS8"),
            (FIG5, "Ave", "MF4-BAS8"),
            (FIG5, "Ave", "MF8-BAS8"),
        ],
    ),
    // Figure 3: the wupwise plateau, the MF32→MF64 collapse, the floor.
    (
        "| 2–32 | miss ~3–4%, PD hit ~80–90%, flat | {n}→{} miss, {n}→{} PD hit, flat |",
        &[
            (FIG3, "MF2", "miss_rate"),
            (FIG3, "MF32", "miss_rate"),
            (FIG3, "MF2", "PD_hit_rate"),
            (FIG3, "MF32", "PD_hit_rate"),
        ],
    ),
    (
        "| 32→64 | sharp simultaneous collapse | {n}→{} miss, {n}→{} PD hit |",
        &[
            (FIG3, "MF32", "miss_rate"),
            (FIG3, "MF64", "miss_rate"),
            (FIG3, "MF32", "PD_hit_rate"),
            (FIG3, "MF64", "PD_hit_rate"),
        ],
    ),
    (
        "| 64–512 | flat at the floor | flat at {} / {} |",
        &[(FIG3, "MF64", "miss_rate"), (FIG3, "MF64", "PD_hit_rate")],
    ),
    // Figure 8: the `Ave` IPC improvements.
    (
        "| 8-way | ~6.2% (B-Cache + 0.3%) | {} |",
        &[(FIG8, "Ave", "8way")],
    ),
    (
        "| B-Cache | 5.9% (max equake 27.1%) | {} (max equake ",
        &[(FIG8, "Ave", "MF8-BAS8")],
    ),
    (
        "| victim16 | B-Cache +3.7% | {} (B-Cache ",
        &[(FIG8, "Ave", "victim16")],
    ),
    // Figure 9: the `Ave` normalized energies.
    (
        "| B-Cache | 0.98 (best; crafty best-case 0.86) | {} (best of all configs) |",
        &[(FIG9, "Ave", "MF8-BAS8")],
    ),
    (
        "| 8-way | >1 on several benchmarks | {} (worst ",
        &[(FIG9, "Ave", "8way")],
    ),
    ("| victim16 | between | {} |", &[(FIG9, "Ave", "victim16")]),
    // Tables 5 and 6: the MF x BAS grid.
    (
        "| reduction BAS=4 | {} | {} | {} | {} |",
        &[
            (TAB5, "BAS = 4", "MF=2"),
            (TAB5, "BAS = 4", "MF=4"),
            (TAB5, "BAS = 4", "MF=8"),
            (TAB5, "BAS = 4", "MF=16"),
        ],
    ),
    (
        "| reduction BAS=8 | {} | {} | **{}** | {} |",
        &[
            (TAB5, "BAS = 8", "MF=2"),
            (TAB5, "BAS = 8", "MF=4"),
            (TAB5, "BAS = 8", "MF=8"),
            (TAB5, "BAS = 8", "MF=16"),
        ],
    ),
    (
        "| PD-hit BAS=4 | {} | {} | {} | {} |",
        &[
            (TAB6, "BAS = 4", "MF=2"),
            (TAB6, "BAS = 4", "MF=4"),
            (TAB6, "BAS = 4", "MF=8"),
            (TAB6, "BAS = 4", "MF=16"),
        ],
    ),
    (
        "| PD-hit BAS=8 | {} | {} | {} | {} |",
        &[
            (TAB6, "BAS = 8", "MF=2"),
            (TAB6, "BAS = 8", "MF=4"),
            (TAB6, "BAS = 8", "MF=8"),
            (TAB6, "BAS = 8", "MF=16"),
        ],
    ),
    // Figure 12: best conventional, MF8-BAS8 and design A vs B.
    (
        "| 32 kB D$ | 8-way {} | {} | {} vs {} ",
        &[
            (FIG12_D32, "Ave", "8way"),
            (FIG12_D32, "Ave", "MF8-BAS8"),
            (FIG12_D32, "Ave", "MF8-BAS8"),
            (FIG12_D32, "Ave", "MF16-BAS4"),
        ],
    ),
    (
        "| 8 kB D$ | 8-way {} | {} | {} vs {} ",
        &[
            (FIG12_D8, "Ave", "8way"),
            (FIG12_D8, "Ave", "MF8-BAS8"),
            (FIG12_D8, "Ave", "MF8-BAS8"),
            (FIG12_D8, "Ave", "MF16-BAS4"),
        ],
    ),
    (
        "| 32 kB I$ | 8-way {} | {} | equal ",
        &[(FIG12_I32, "Ave", "8way"), (FIG12_I32, "Ave", "MF8-BAS8")],
    ),
    (
        "| 8 kB I$ | 8-way {} | {} | {} vs {} ",
        &[
            (FIG12_I8, "Ave", "8way"),
            (FIG12_I8, "Ave", "MF8-BAS8"),
            (FIG12_I8, "Ave", "MF8-BAS8"),
            (FIG12_I8, "Ave", "MF16-BAS4"),
        ],
    ),
    // Section 7.1: the `Ave` related-work reductions.
    (
        "| {} | {} | {} | {} | {} | {} | {} | **{}** |",
        &[
            (SEC71, "Ave", "column"),
            (SEC71, "Ave", "skew2"),
            (SEC71, "Ave", "agac"),
            (SEC71, "Ave", "pam5"),
            (SEC71, "Ave", "2way"),
            (SEC71, "Ave", "4way"),
            (SEC71, "Ave", "hac32"),
            (SEC71, "Ave", "MF8-BAS8"),
        ],
    ),
];

/// Finds one cell of `all`: its line number and byte range in that
/// line. A section starts at the line beginning with its title prefix
/// and its column header is the next line; the row is the first later
/// line whose text starts with the label, and the cell is the row's
/// token ending where the header's column name ends (the report
/// right-aligns every column under its name).
fn locate(all: &str, (section, row, column): Cell) -> Result<(usize, Range<usize>), String> {
    let mut lines = all
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.starts_with(section));
    lines
        .next()
        .ok_or_else(|| format!("no section titled `{section}`"))?;
    let (_, header) = lines
        .next()
        .ok_or_else(|| format!("`{section}` has no header line"))?;
    let end = header
        .match_indices(column)
        .map(|(i, _)| i + column.len())
        .find(|&e| header[e..].starts_with(' ') || e == header.len())
        .ok_or_else(|| format!("`{section}` has no column `{column}`"))?;
    let (n, line) = lines
        .find(|(_, l)| l.trim_start().starts_with(row))
        .ok_or_else(|| format!("`{section}` has no row `{row}`"))?;
    let start = line[..end.min(line.len())].rfind(' ').map_or(0, |i| i + 1);
    match line.get(start..end) {
        Some(text) if !text.is_empty() && line[end..].chars().next().is_none_or(|c| c == ' ') => {
            Ok((n, start..end))
        }
        _ => Err(format!(
            "`{section}` row `{row}` has no cell under `{column}`"
        )),
    }
}

/// The text of one cell of `all` (see [`locate`]).
fn cell(all: &str, c: Cell) -> Result<String, String> {
    let (n, range) = locate(all, c)?;
    Ok(all.lines().nth(n).expect("located line")[range].to_string())
}

/// Fills a quote's holes from `all`, in order.
fn render(quote: &str, cells: &[Cell], all: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut rest = quote;
    let mut cells = cells.iter();
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let close = open + rest[open..].find('}').expect("unclosed hole in a quote");
        let text = cell(all, *cells.next().expect("more holes than cells"))?;
        match &rest[open..=close] {
            "{}" => out.push_str(&text),
            "{n}" => out.push_str(text.trim_end_matches('%')),
            hole => panic!("unknown hole `{hole}` in a quote"),
        }
        rest = &rest[close + 1..];
    }
    assert!(cells.next().is_none(), "more cells than holes in `{quote}`");
    out.push_str(rest);
    Ok(out)
}

/// Every quote `doc` gets wrong, each naming its cells and the doc
/// line it expected.
fn drifted(doc: &str, all: &str) -> Vec<String> {
    let mut errors = Vec::new();
    for &(quote, cells) in QUOTES {
        let named: Vec<String> = cells
            .iter()
            .map(|&c| {
                let value = cell(all, c).unwrap_or_else(|e| e);
                format!("{} / {} / {} = {value}", c.0, c.1, c.2)
            })
            .collect();
        match render(quote, cells, all) {
            Err(e) => errors.push(format!("results/all.txt: {e}")),
            Ok(text) if !doc.contains(&text) => {
                let prefix = &quote[..quote.find('{').unwrap_or(quote.len())];
                let now = doc
                    .lines()
                    .find(|l| l.contains(prefix))
                    .unwrap_or("(no such line)");
                errors.push(format!(
                    "EXPERIMENTS.md does not quote `{text}`\n  cells: {}\n  doc line: {now}",
                    named.join("; ")
                ));
            }
            Ok(_) => {}
        }
    }
    errors
}

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("reading {full}: {e}"))
}

#[test]
fn experiments_quotes_match_the_pinned_output() {
    let errors = drifted(&read("EXPERIMENTS.md"), &read("results/all.txt"));
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn a_drifted_doc_cell_is_named() {
    let all = read("results/all.txt");
    let table5 = cell(&all, (TAB5, "BAS = 8", "MF=8")).unwrap();
    // Only the Table 5 quote: the Section 7.1 row, further down, bolds
    // the same value.
    let doc = read("EXPERIMENTS.md").replacen(&format!("**{table5}**"), "**99.9%**", 1);
    let errors = drifted(&doc, &all);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(
        errors[0].contains("Table 5: / BAS = 8 / MF=8"),
        "{}",
        errors[0]
    );
}

#[test]
fn every_quoted_cell_is_pinned() {
    let doc = read("EXPERIMENTS.md");
    let all = read("results/all.txt");
    for &(quote, cells) in QUOTES {
        for &c in cells {
            // Overwrite the cell in place, as a hand edit would.
            let (n, range) = locate(&all, c).unwrap();
            let edited: Vec<String> = all
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    let mut l = l.to_string();
                    if i == n {
                        l.replace_range(range.clone(), &"#".repeat(range.len()));
                    }
                    l
                })
                .collect();
            let errors = drifted(&doc, &edited.join("\n"));
            assert!(
                !errors.is_empty(),
                "editing {} / {} / {} leaves `{quote}` passing",
                c.0,
                c.1,
                c.2
            );
        }
    }
}

#[test]
fn cells_are_read_by_column_alignment() {
    let all = [
        "Figure X: demo",
        "benchmark  dm-miss   2way",
        "-------------------------",
        "     ammp   40.07%   9.9%",
        &format!("      Ave{}21.8%", " ".repeat(11)),
    ]
    .join("\n");
    let all = all.as_str();
    assert_eq!(
        cell(all, ("Figure X", "ammp", "dm-miss")).unwrap(),
        "40.07%"
    );
    assert_eq!(cell(all, ("Figure X", "Ave", "2way")).unwrap(), "21.8%");
    assert!(cell(all, ("Figure X", "Ave", "dm-miss")).is_err());
    assert!(cell(all, ("Figure Y", "Ave", "2way")).is_err());
}
