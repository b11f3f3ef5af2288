//! Summary-artifact plumbing shared by the gate binaries.
//!
//! Every `BENCH_*.json` summary has one shape: a header (bench name plus a
//! provenance stamp) and a `results` array holding one flat JSON object
//! per line. The criterion shim writes that shape for the benches;
//! [`header`] opens it for the gate binaries, and [`mean_ns`] reads a row
//! back. The shim keeps its own provenance copy because it stands in for
//! an external crate and cannot depend on this one.

use asets_obs::json::parse_flat;

/// Best-effort provenance: which commit, when, and on which host the
/// numbers were taken. Every field degrades to `"unknown"` rather than
/// failing the export.
fn provenance() -> (String, String, String) {
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let date_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::process::Command::new("uname")
                .arg("-n")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (git_sha, date_unix, host)
}

/// Open a summary artifact: `{`, then the bench name and the provenance
/// stamp (`git_sha`, `date_unix`, `host`), one `"key": "value",` line
/// each — the same fields the criterion shim stamps. The caller appends
/// its own fields and the `results` array.
pub fn header(bench: &str) -> String {
    let (git_sha, date_unix, host) = provenance();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"git_sha\": \"{git_sha}\",\n  \
         \"date_unix\": \"{date_unix}\",\n  \"host\": \"{host}\",\n"
    )
}

/// Pull `mean_ns` for `group`/`id` out of the summary file at `path`.
pub fn mean_ns(path: &str, group: &str, id: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    mean_ns_in(&text, group, id).map_err(|e| format!("{path}: {e}"))
}

/// [`mean_ns`] over summary text already in memory.
fn mean_ns_in(text: &str, group: &str, id: &str) -> Result<f64, String> {
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"group\"") {
            continue;
        }
        let obj = parse_flat(line).map_err(|e| format!("bad result line: {e}"))?;
        if obj.str("group") == Some(group) && obj.str("id") == Some(id) {
            return obj
                .float("mean_ns")
                .ok_or_else(|| format!("{group}/{id} has no mean_ns"));
        }
    }
    Err(format!("no result for {group}/{id}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_summary_row_reads_back() {
        let mut text = header("demo");
        text.push_str(
            "  \"results\": [\n    {\"group\": \"g\", \"id\": \"a/1\", \"mean_ns\": 12.5},\n    \
             {\"group\": \"g\", \"id\": \"b/1\", \"mean_ns\": 3.0}\n  ]\n}\n",
        );
        assert!(text.starts_with("{\n  \"bench\": \"demo\",\n  \"git_sha\": \""));
        assert!(text.contains("\"date_unix\": \"") && text.contains("\"host\": \""));
        assert_eq!(mean_ns_in(&text, "g", "a/1"), Ok(12.5));
        assert_eq!(mean_ns_in(&text, "g", "b/1"), Ok(3.0));
        assert_eq!(
            mean_ns_in(&text, "g", "c/1"),
            Err("no result for g/c/1".to_string())
        );
    }
}
