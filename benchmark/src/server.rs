//! The system under test as a child process: spawn the real
//! `minos-server`, read `/proc/<pid>` while it runs, stop it with SIGINT
//! and parse the final snapshot it writes to its `--stats-file`.

use crate::workloads::{SERVER_CORES, SERVER_ITEMS};
use minos_obs::Snapshot;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, 100 per
/// second on every Linux ABI.
const USER_HZ: f64 = 100.0;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const SIGINT: i32 = 2;
const SIGKILL: u64 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// A free-looking base port for this process's `attempt`-th server.
/// Servers bind with `SO_REUSEPORT`, so a bind over a live stranger
/// would succeed and split its traffic; salting by PID keeps concurrent
/// harnesses apart, and a harness always reaps its own servers. The
/// range (10 000–30 000) stays below the kernel's ephemeral ports, which
/// the client sockets — `SO_REUSEPORT` too — are given.
pub fn base_port(attempt: u16) -> u16 {
    let salt = (std::process::id() % 500) as u16;
    10_000 + salt * 40 + (attempt % 10) * 4
}

pub struct ServerProc {
    child: Child,
    pub args: Vec<String>,
    stats_file: PathBuf,
}

impl ServerProc {
    /// Starts `bin` on `port` with the benchmark's fixed flags, the
    /// workload's `flags`, and `extra` (the `MINOS_BENCH_SERVER_ARGS`
    /// override). Its stdout/stderr go to files under `out_dir`.
    pub fn spawn(
        bin: &Path,
        out_dir: &Path,
        tag: &str,
        port: u16,
        flags: &[String],
        extra: &[String],
    ) -> Result<ServerProc, String> {
        let stats_file = out_dir.join(format!("server-{tag}.stats.jsonl"));
        let mut args: Vec<String> = vec![
            "--cores".into(),
            SERVER_CORES.to_string(),
            "--items".into(),
            SERVER_ITEMS.to_string(),
        ];
        args.extend_from_slice(flags);
        args.extend_from_slice(extra);
        // What `--compare` matches on: everything but the per-run port
        // and file names.
        let logical_args = args.clone();
        // The final snapshot is only written when a periodic interval
        // is set; an hour-long one keeps the timeline to that one line.
        args.extend([
            "--port".into(),
            port.to_string(),
            "--stats-interval-ms".into(),
            "3600000".into(),
            "--stats-file".into(),
            stats_file.display().to_string(),
            "--json".into(),
        ]);
        let file = |suffix: &str| {
            std::fs::File::create(out_dir.join(format!("server-{tag}.{suffix}")))
                .map_err(|e| format!("create server log: {e}"))
        };
        let mut command = Command::new(bin);
        command
            .args(&args)
            .stdin(Stdio::null())
            .stdout(file("exit.json")?)
            .stderr(file("log")?);
        // A harness that is killed cannot run `Drop`; have the kernel
        // kill the busy-polling server with it.
        // SAFETY: the closure runs in the forked child before exec and
        // makes one raw syscall with integer arguments — nothing that
        // allocates or takes a lock.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(ServerProc {
            child,
            args: logical_args,
            stats_file,
        })
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// utime + stime of the whole process, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, 12th and 13th after it.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let mut fields = rest.split_whitespace().skip(11);
        let mut tick = || -> Result<f64, String> {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((tick()? + tick()?) / USER_HZ)
    }

    /// Peak resident set (`VmHWM`), in MB.
    pub fn rss_hwm_mb(&self) -> Result<f64, String> {
        status_field(&self.proc_file("status")?, "VmHWM:")
            .map(|kb| kb / 1000.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Involuntary context switches summed over the server's threads.
    pub fn invol_ctxsw(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut total = 0.0;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry
                .map_err(|e| format!("{dir}: {e}"))?
                .path()
                .join("status");
            // A thread may exit between listing and reading.
            if let Ok(status) = std::fs::read_to_string(path) {
                total += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0.0);
            }
        }
        Ok(total)
    }

    /// SIGINT, wait for the drain and exit, then parse the last line of
    /// the stats file: the server's authoritative end state.
    pub fn stop(mut self) -> Result<Snapshot, String> {
        // SAFETY: `kill` takes plain integers; the pid is our own
        // still-unreaped child, so it cannot have been recycled.
        let rc = unsafe { kill(self.child.id() as i32, SIGINT) };
        if rc != 0 {
            return Err(format!("kill -INT {}: failed", self.child.id()));
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server ignored SIGINT for 15 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        let text = std::fs::read_to_string(&self.stats_file)
            .map_err(|e| format!("{}: {e}", self.stats_file.display()))?;
        let last = text.lines().last().ok_or("server wrote no snapshot")?;
        Snapshot::parse_json_line(last).map_err(|e| format!("final snapshot: {e}"))
    }
}

impl Drop for ServerProc {
    /// Error paths must not leave a busy-polling server behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The number after `key` on its line of a `/proc/<pid>/status` file.
fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`.
pub fn host_cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`host_cpu_ticks`] readings.
pub fn steal_frac(before: (f64, f64), after: (f64, f64)) -> f64 {
    let total = after.1 - before.1;
    if total > 0.0 {
        (after.0 - before.0) / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  123456 kB\nnonvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(123456.0));
        assert_eq!(
            status_field(status, "nonvoluntary_ctxt_switches:"),
            Some(42.0)
        );
        assert_eq!(status_field(status, "VmRSS:"), None);
    }

    #[test]
    fn steal_is_a_share_of_elapsed_ticks() {
        assert_eq!(steal_frac((10.0, 1000.0), (16.0, 1100.0)), 0.06);
        assert_eq!(steal_frac((10.0, 1000.0), (10.0, 1000.0)), 0.0);
    }
}
