//! Provenance: the host banner every output carries, and the process's
//! peak resident set.

use elsi_store::Json;
use std::process::Command;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Banner {
    pub cpu_model: String,
    pub nproc: usize,
    pub rayon_threads: usize,
    pub rustc: String,
    pub target_features: String,
    pub git_commit: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The SIMD levels this binary was compiled for — what `-C target-cpu`
/// resolved to, which decides how wide the scan kernels vectorise.
fn compiled_target_features() -> String {
    let mut on = Vec::new();
    for (name, enabled) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if enabled {
            on.push(name);
        }
    }
    if on.is_empty() {
        "baseline".to_string()
    } else {
        on.join(",")
    }
}

impl Banner {
    pub fn collect(rayon_threads: usize) -> Banner {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Banner {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads,
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            target_features: compiled_target_features(),
            // Only where the working directory is itself a repository: git
            // would otherwise go looking through the directories above it.
            git_commit: Some(())
                .filter(|()| std::path::Path::new(".git").exists())
                .and_then(|()| first_line_of("git", &["rev-parse", "--short=12", "HEAD"]))
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("nproc", Json::int(self.nproc)),
            ("rayon_threads", Json::int(self.rayon_threads)),
            ("rustc", Json::str(self.rustc.clone())),
            ("target_features", Json::str(self.target_features.clone())),
            ("git_commit", Json::str(self.git_commit.clone())),
        ])
    }

    pub fn render_lines(&self) -> String {
        format!(
            "# host: {} | nproc {} | rayon threads {} | {} | target features {} | commit {}\n",
            self.cpu_model,
            self.nproc,
            self.rayon_threads,
            self.rustc,
            self.target_features,
            self.git_commit
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB; `None` where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
