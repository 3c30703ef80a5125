//! One `massf` run in a fresh process.
//!
//! The benchmark re-executes its own binary as `massf-benchmark child <massf
//! arguments>`; the child calls the CLI entry point `massf_repro::cli::run`
//! exactly as `src/bin/massf.rs` does, times that one call, and reports its
//! own peak memory and CPU time on a last line the parent strips off. A fresh
//! process per run is what makes `VmHWM` a per-run figure.

use std::process::Command;
use std::time::Instant;

/// First token of the line the child appends to the CLI's own output.
const MARKER: &str = "#massf-benchmark-child";

/// Linux reports process times in units of 1/100 s (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// What one run in a fresh process measured.
#[derive(Debug, Clone)]
pub struct RunSample {
    /// Wall clock of the `cli::run(args)` call.
    pub wall_s: f64,
    /// User + system CPU time of the child, all threads.
    pub cpu_s: f64,
    /// `VmHWM` of the child when `cli::run` had returned.
    pub peak_rss_mib: f64,
    /// What `massf` would have printed.
    pub output: String,
}

/// The `child` subcommand. Returns the process exit code.
pub fn child_main(massf_args: &[String]) -> i32 {
    let start = Instant::now();
    let result = massf_repro::cli::run(massf_args);
    let wall_s = start.elapsed().as_secs_f64();
    match result {
        Ok(text) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            println!(
                "{MARKER} wall_s={wall_s} cpu_s={} vm_hwm_kib={}",
                own_cpu_s().unwrap_or(f64::NAN),
                own_vm_hwm_kib().unwrap_or(0)
            );
            0
        }
        Err(e) => {
            eprintln!("massf: {e}");
            1
        }
    }
}

fn own_vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn own_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields 3.. follow its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Runs `massf <args>` in a fresh process and waits for it to end.
pub fn run_cli(massf_args: &[String]) -> Result<RunSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(massf_args)
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "massf {} failed ({}): {}",
            massf_args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    parse_child_output(&stdout)
}

fn parse_child_output(stdout: &str) -> Result<RunSample, String> {
    let marker_at = stdout
        .rfind(MARKER)
        .ok_or("child printed no measurement line")?;
    let field = |key: &str| -> Result<f64, String> {
        stdout[marker_at..]
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("child measurement line lacks {key}"))
    };
    Ok(RunSample {
        wall_s: field("wall_s")?,
        cpu_s: field("cpu_s")?,
        peak_rss_mib: field("vm_hwm_kib")? / 1024.0,
        output: stdout[..marker_at].to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_line_is_split_from_the_program_output() {
        let s = parse_child_output(&format!(
            "kernel events: 9\n{MARKER} wall_s=1.5 cpu_s=1.25 vm_hwm_kib=2048\n"
        ))
        .unwrap();
        assert_eq!(s.output, "kernel events: 9\n");
        assert_eq!((s.wall_s, s.cpu_s, s.peak_rss_mib), (1.5, 1.25, 2.0));
        assert!(parse_child_output("kernel events: 9\n").is_err());
    }

    #[test]
    fn own_process_figures_are_readable() {
        assert!(own_vm_hwm_kib().unwrap() > 0);
        assert!(own_cpu_s().unwrap() >= 0.0);
    }
}
