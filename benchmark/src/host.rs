//! Self-pinning and the host facts recorded in every result file.

use std::os::unix::process::CommandExt;
use std::process::Command;

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// The CPUs this process may run on, from `Cpus_allowed_list`
/// (`"0-3,8"` → `[0, 1, 2, 3, 8]`).
fn allowed_cpus() -> Vec<u32> {
    let Some(list) = proc_status_field("Cpus_allowed_list") else {
        return Vec::new();
    };
    parse_cpu_list(&list)
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<u32>(), hi.trim().parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Whether the process is confined to one CPU.
pub fn pinned() -> bool {
    allowed_cpus().len() == 1
}

/// Re-exec under `taskset -c <highest allowed cpu>` unless already
/// confined to one CPU. Identical repetitions on the shared 2-vCPU
/// reference host ranged 16k–33k tuples/s unpinned; pinning plus
/// per-index minima brings separate runs within 1–3 %. Returns (and the
/// run proceeds unpinned) when `taskset` is missing or not permitted.
pub fn pin_or_continue() {
    let cpus = allowed_cpus();
    let Some(cpu) = cpus.iter().max() else {
        return;
    };
    if cpus.len() == 1 {
        return;
    }
    let cpu = cpu.to_string();
    // Probe first: after `exec` there is no way back to "unpinned".
    let works = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .output()
        .is_ok_and(|o| o.status.success());
    if !works {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    // On success the pinned image sees a one-CPU `Cpus_allowed_list`
    // and does not come back here.
    let _ = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .exec();
}

/// `VmHWM` of this process in kB (0 if unreadable).
pub fn peak_rss_kb() -> u64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Keeps `git` from searching above the checkout for a repository.
        .env(
            "GIT_CEILING_DIRECTORIES",
            repo_root().parent().unwrap_or(std::path::Path::new("/")),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checkout the benchmark was built in (it sits in `benchmark/`).
fn repo_root() -> std::path::PathBuf {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir.parent().unwrap_or(manifest_dir).to_path_buf()
}

/// Facts about the machine and build, as `(key, JSON value)` pairs.
pub fn facts() -> Vec<(&'static str, serde_json::Value)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v)
        })
        .map_or("unknown".to_string(), |v| v.trim().to_string());
    let repo_root = repo_root();
    vec![
        ("nproc", serde_json::json!(nproc)),
        ("cpu_model", serde_json::json!(cpu_model)),
        ("pinned", serde_json::json!(pinned())),
        (
            "rustc",
            serde_json::json!(command_line("rustc", &["--version"])),
        ),
        (
            "profile",
            serde_json::json!(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            serde_json::json!(command_line(
                "git",
                &["-C", &repo_root.to_string_lossy(), "rev-parse", "HEAD"]
            )),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-3,8"), vec![0, 1, 2, 3, 8]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<u32>::new());
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_kb() > 0);
    }
}
