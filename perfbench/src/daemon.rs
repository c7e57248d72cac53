//! A `p3p-serverd` child process: spawn, readiness, `/proc` readings,
//! and a kill-and-wait on drop so no run leaves a daemon behind.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

extern "C" {
    // glibc's `int prctl(int option, ...)`; the standard library links
    // libc, so no crate is needed for this one call.
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which
/// the kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon and block on its stdout until it prints
    /// `listening on ADDR`. Returns the daemon and the spawn instant.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<(Daemon, Instant), String> {
        let spawned = Instant::now();
        let mut command = Command::new(binary);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl, which is async-signal-safe and touches no
        // memory of the parent. PR_SET_PDEATHSIG makes the kernel kill
        // the daemon if this process dies without running `Drop`
        // (e.g. when it is itself killed).
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        daemon.addr = addr
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                        return Ok((daemon, spawned));
                    }
                }
                Some(Err(e)) => return Err(format!("reading daemon stdout: {e}")),
                None => {
                    let status = daemon.child.wait().map_err(|e| e.to_string())?;
                    return Err(format!("daemon exited before listening: {status}"));
                }
            }
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// User plus system CPU time the daemon has used, every thread
    /// (exited ones included), in microseconds.
    pub fn cpu_us(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("stat field {i} missing"))
        };
        Ok((tick(11)? + tick(12)?) / USER_HZ * 1e6)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("VmHWM missing")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // The benchmark needs no drain: kill, then reap so no zombie or
        // stray daemon outlives the run.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The VM's (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's vCPUs wanted to
/// run, beside all time accounted. Its share over a phase says how much
/// of the phase's wall-clock noise came from outside the machine.
pub fn host_steal_ticks() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let counted = &fields[..fields.len().min(8)];
    Ok((counted.get(7).copied().unwrap_or(0.0), counted.iter().sum()))
}
