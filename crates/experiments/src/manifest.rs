//! Incremental sweep manifest (`results/manifest.json`).
//!
//! `repro` records the fate of every sweep cell here as it completes
//! — `ok`, `panicked`, or `timeout`, keyed `<target>/<cell-id>` —
//! rewriting the file after each cell so a crashed or killed sweep
//! leaves an accurate ledger behind. `repro --resume` reads it back,
//! replays cells already marked `ok` at the same scale from the cell
//! cache, and re-runs only the failures (and anything never
//! attempted).
//!
//! The manifest deliberately carries **no timestamps or durations**:
//! two runs of the same sweep at the same scale produce byte-identical
//! manifests, so it can sit inside byte-diffed determinism checks.
//!
//! The format is a fixed JSON shape written and parsed by this module
//! alone, not through `serde_json::from_str`. The parser is
//! intentionally a line-oriented reader of exactly what
//! [`Manifest::write`] emits — it is not a general JSON parser, and a
//! hand-edited manifest that strays from the shape is treated as
//! absent rather than guessed at.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Fate of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// `"ok"`, `"panicked"`, `"timeout"`, `"livelock"`,
    /// `"audit-violation"`, or `"interrupted"`.
    pub status: String,
    /// The panic or `SimAbort` message for failed cells.
    pub message: Option<String>,
}

impl CellRecord {
    /// A completed cell.
    pub fn ok() -> Self {
        CellRecord {
            status: "ok".to_string(),
            message: None,
        }
    }

    /// A failed cell with its status tag and message.
    pub fn failed(status: &str, message: String) -> Self {
        CellRecord {
            status: status.to_string(),
            message: Some(message),
        }
    }
}

/// The sweep ledger: scale plus per-cell fate, keyed
/// `<target>/<cell-id>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// `"full"` or `"quick"`; a manifest written at one scale never
    /// satisfies `--resume` at the other.
    pub scale: String,
    /// Per-cell records in deterministic (sorted) order.
    pub cells: BTreeMap<String, CellRecord>,
}

impl Manifest {
    /// Fresh manifest for a sweep at `scale`.
    pub fn new(scale: &str) -> Self {
        Manifest {
            scale: scale.to_string(),
            cells: BTreeMap::new(),
        }
    }

    /// True if `cell` completed (`ok`) in this manifest.
    pub fn is_ok(&self, cell: &str) -> bool {
        self.cells.get(cell).is_some_and(|r| r.status == "ok")
    }

    /// Record (or overwrite) one cell's fate.
    pub fn record(&mut self, cell: &str, record: CellRecord) {
        self.cells.insert(cell.to_string(), record);
    }

    /// Serialize to the fixed manifest shape.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", escape(&self.scale)));
        out.push_str("  \"cells\": {\n");
        let last = self.cells.len().saturating_sub(1);
        for (i, (name, rec)) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"status\": \"{}\"",
                escape(name),
                escape(&rec.status)
            ));
            if let Some(msg) = &rec.message {
                out.push_str(&format!(", \"message\": \"{}\"", escape(msg)));
            }
            out.push('}');
            if i != last {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Write atomically-enough (temp file + rename) to `dir/manifest.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join("manifest.json.tmp");
        let path = dir.join("manifest.json");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.render().as_bytes())?;
        drop(f);
        std::fs::rename(&tmp, &path)
    }

    /// Read `dir/manifest.json` back; `None` if the file is absent or
    /// not in the shape [`Manifest::write`] produces.
    pub fn load(dir: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
        Self::parse(&text)
    }

    /// Parse the fixed manifest shape (the inverse of [`Manifest::render`]).
    pub fn parse(text: &str) -> Option<Self> {
        let mut scale: Option<String> = None;
        let mut cells = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some(rest) = line.strip_prefix("\"scale\":") {
                scale = Some(unquote(rest.trim())?);
            } else if line.starts_with('"') && line.contains("{\"status\":") {
                let (name, rest) = split_key(line)?;
                let rest = rest.trim().strip_prefix('{')?.trim_end_matches('}');
                let mut status = None;
                let mut message = None;
                for field in split_fields(rest) {
                    let (key, value) = split_key(field.trim())?;
                    match key.as_str() {
                        "status" => status = Some(unquote(value.trim())?),
                        "message" => message = Some(unquote(value.trim())?),
                        _ => return None,
                    }
                }
                cells.insert(name, CellRecord {
                    status: status?,
                    message,
                });
            }
        }
        Some(Manifest {
            scale: scale?,
            cells,
        })
    }
}

/// Escape a string for the manifest's JSON strings (also used by the
/// `failures.json` writer in [`crate::exec`]).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`] on a `"`-delimited string literal.
fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = (&mut chars).take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Split `"key": rest` into `(key, rest)`, honoring escapes in the key.
fn split_key(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            let key = unquote(&s[..i + 2])?;
            let after = rest[i + 1..].trim_start().strip_prefix(':')?;
            return Some((key, after));
        }
    }
    None
}

/// Split `"a": "x", "b": "y"` on top-level commas (commas inside string
/// literals don't split).
fn split_fields(s: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            in_string = !in_string;
        } else if c == ',' && !in_string {
            fields.push(&s[start..i]);
            start = i + 1;
        }
    }
    if !s[start..].trim().is_empty() {
        fields.push(&s[start..]);
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_render_and_parse() {
        let mut m = Manifest::new("quick");
        m.record("fig45", CellRecord::ok());
        m.record(
            "panic-cell",
            CellRecord::failed("panicked", "deliberate \"quoted\" panic,\nwith newline".into()),
        );
        m.record("chaos", CellRecord::failed("timeout", "cell exceeded the 2s deadline".into()));
        let text = m.render();
        let back = Manifest::parse(&text).expect("own output parses");
        assert_eq!(back, m);
    }

    #[test]
    fn render_is_deterministic_and_timestamp_free() {
        let mut m = Manifest::new("full");
        m.record("b", CellRecord::ok());
        m.record("a", CellRecord::ok());
        let one = m.render();
        let two = m.clone().render();
        assert_eq!(one, two);
        // Sorted cell order regardless of insertion order.
        assert!(one.find("\"a\"").unwrap() < one.find("\"b\"").unwrap());
    }

    #[test]
    fn ok_lookup_ignores_failures() {
        let mut m = Manifest::new("quick");
        m.record("good", CellRecord::ok());
        m.record("bad", CellRecord::failed("panicked", "boom".into()));
        assert!(m.is_ok("good"));
        assert!(!m.is_ok("bad"));
        assert!(!m.is_ok("absent"));
    }

    #[test]
    fn malformed_text_is_rejected_not_guessed() {
        assert!(Manifest::parse("not json").is_none());
        assert!(Manifest::parse("{\n  \"cells\": {\n  }\n}\n").is_none()); // no scale
    }

    #[test]
    fn writes_and_loads_from_disk() {
        let dir = std::env::temp_dir().join(format!("slowcc-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manifest::new("quick");
        m.record("fig3", CellRecord::ok());
        m.write(&dir).expect("manifest writes");
        let back = Manifest::load(&dir).expect("manifest loads");
        assert_eq!(back, m);
        assert!(!dir.join("manifest.json.tmp").exists(), "temp file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
