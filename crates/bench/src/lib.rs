//! Shared helpers for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary prints a `paper vs measured` table. Absolute numbers are
//! not expected to match (the population is synthetic but calibrated);
//! the *shape* — orderings, dominant categories, rough magnitudes — is
//! what EXPERIMENTS.md records.

pub mod load;

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric label.
    pub label: String,
    /// The paper's reported value, if stated.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
}

impl Row {
    /// Creates a row with a paper reference value.
    pub fn new(label: &str, paper: f64, measured: f64) -> Self {
        Self { label: label.to_owned(), paper: Some(paper), measured }
    }

    /// Creates a row the paper gives no number for.
    pub fn measured_only(label: &str, measured: f64) -> Self {
        Self { label: label.to_owned(), paper: None, measured }
    }
}

/// Prints a comparison table with a heading.
pub fn print_table(heading: &str, rows: &[Row]) {
    println!("== {heading} ==");
    println!("  {:<46} {:>9} {:>10}", "metric", "paper %", "measured %");
    for r in rows {
        match r.paper {
            Some(p) => println!("  {:<46} {:>9.2} {:>10.2}", r.label, p, r.measured),
            None => println!("  {:<46} {:>9} {:>10.2}", r.label, "—", r.measured),
        }
    }
    println!();
}

/// The standard experiment population seed (kept stable so EXPERIMENTS.md
/// stays reproducible).
pub const EXPERIMENT_SEED: u64 = 2021;

/// Parses a `--trace <path>` (or `--trace=<path>`) flag from the
/// process arguments and, when present, enables the global obs recorder
/// so the run records counters, spans and events. Call
/// [`finish_trace`] at the end of `main` to write the snapshot.
///
/// # Panics
///
/// Panics when `--trace` is given without a path.
pub fn init_trace() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    let path = loop {
        let arg = args.next()?;
        if arg == "--trace" {
            break args.next().expect("--trace requires a path").into();
        }
        if let Some(rest) = arg.strip_prefix("--trace=") {
            break rest.into();
        }
    };
    actfort_core::obs::reset();
    actfort_core::obs::set_enabled(true);
    Some(path)
}

/// Splices `  "<key>": <section>` into the bench JSON at `path` as one
/// line, replacing an existing `"<key>"` line (preserving its trailing
/// comma, so sections after it survive) or appending before the final
/// brace; the result is re-parsed to prove it is still valid JSON.
/// `section` must itself be single-line JSON. A missing file starts as
/// `{"bench": "<bench>"}`. Shared by every bench bin that writes a
/// section, so no splicer can corrupt another's section.
///
/// # Panics
///
/// Panics when the file is not a `{ ... }` document, when its `"bench"`
/// label is not `bench` (a section written into another artifact), or
/// when the splice result fails to parse.
pub fn splice_section(path: &str, bench: &str, key: &str, section: &str) {
    let line = format!("  \"{key}\": {section}");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|_| format!("{{\n  \"bench\": \"{bench}\"\n}}\n"));
    let doc = actfort_core::obs::json::parse(&text).ok();
    let label = doc.as_ref().and_then(|doc| doc.get("bench")?.as_str());
    assert_eq!(label, Some(bench), "{path} is not a \"{bench}\" bench artifact");
    let marker = format!("\n  \"{key}\":");
    let updated = if let Some(start) = text.find(&marker) {
        let line_end = text[start + 1..].find('\n').map_or(text.len(), |i| start + 1 + i);
        let comma = if text[..line_end].trim_end().ends_with(',') { "," } else { "" };
        format!("{}{line}{comma}{}", &text[..=start], &text[line_end..])
    } else {
        let trimmed = text.trim_end();
        let body = trimmed.strip_suffix('}').expect("bench JSON ends with }").trim_end();
        format!("{body},\n{line}\n}}\n")
    };
    actfort_core::obs::json::parse(&updated)
        .unwrap_or_else(|e| panic!("spliced {path} is no longer valid JSON: {e}"));
    std::fs::write(path, updated).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// Writes the obs snapshot gathered since [`init_trace`] to `path` as
/// JSON (wall-times included) and disables the recorder. No-op when
/// `path` is `None`, so `main` can call it unconditionally.
pub fn finish_trace(path: Option<&std::path::Path>) {
    let Some(path) = path else { return };
    actfort_core::obs::set_enabled(false);
    let json = actfort_core::obs::snapshot().to_json();
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing trace {}: {e}", path.display()));
    eprintln!("trace written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_construct() {
        let r = Row::new("x", 1.0, 2.0);
        assert_eq!(r.paper, Some(1.0));
        let m = Row::measured_only("y", 3.0);
        assert_eq!(m.paper, None);
    }

    #[test]
    fn splice_section_preserves_other_sections_and_commas() {
        let dir = std::env::temp_dir().join(format!("actfort-splice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bench.json");
        let path = path.to_str().expect("utf-8 path");
        std::fs::write(path, "{\n  \"bench\": \"forward\"\n}\n").expect("seed file");

        // Append two sections, then overwrite the *first* one: the
        // replacement must keep the comma that separates it from the
        // second (the bug a serve-only splicer had when anything was
        // appended after its section).
        splice_section(path, "forward", "serve", r#"{"v": 1}"#);
        splice_section(path, "forward", "score", r#"{"v": 2}"#);
        splice_section(path, "forward", "serve", r#"{"v": 3}"#);
        let text = std::fs::read_to_string(path).expect("read back");
        let doc = actfort_core::obs::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("serve").and_then(|s| s.get("v")).and_then(|v| v.as_num()), Some(3.0));
        assert_eq!(doc.get("score").and_then(|s| s.get("v")).and_then(|v| v.as_num()), Some(2.0));
        // Overwriting the last section keeps it comma-free.
        splice_section(path, "forward", "score", r#"{"v": 4}"#);
        let text = std::fs::read_to_string(path).expect("read back");
        assert!(text.trim_end().ends_with("\"score\": {\"v\": 4}\n}"), "unexpected tail: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn splice_section_labels_a_new_file_and_refuses_another_bench() {
        let dir = std::env::temp_dir().join(format!("actfort-splice-new-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_gsm.json");
        let path = path.to_str().expect("utf-8 path");
        splice_section(path, "gsm", "campaign", r#"{"v": 1}"#);
        let text = std::fs::read_to_string(path).expect("read back");
        assert_eq!(text, "{\n  \"bench\": \"gsm\",\n  \"campaign\": {\"v\": 1}\n}\n");
        let mislabelled = std::panic::catch_unwind(|| splice_section(path, "forward", "x", "1"));
        assert!(mislabelled.is_err(), "a forward section must not land in a gsm artifact");
        assert_eq!(std::fs::read_to_string(path).expect("read back"), text);
        std::fs::remove_dir_all(&dir).ok();
    }
}
