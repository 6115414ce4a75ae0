//! The server under test: an `inano-serve` child process, started with
//! default settings, timed from spawn to its `LISTENING` line, and
//! always killed and reaped.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a start may take before the run gives up on it.
const START_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    child: Child,
    pub tcp: SocketAddr,
    pub udp: Option<SocketAddr>,
    /// Drains the server's stdout; joined once the child is reaped.
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn `bin args...` and wait for its `LISTENING` line (and the
    /// `LISTENING-UDP` line when `udp` is set). Returns the server and
    /// the time from spawn to the last of those lines.
    pub fn start(bin: &Path, args: &[String], udp: bool) -> Result<(Server, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((line, Instant::now())).is_err() {
                    break;
                }
            }
        });
        let mut tcp = None;
        let mut udp_addr = None;
        let mut ready_at = t0;
        while tcp.is_none() || (udp && udp_addr.is_none()) {
            let (line, at) = match rx.recv_timeout(START_TIMEOUT) {
                Ok(got) => got,
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = reader.join();
                    return Err(format!("{} never printed LISTENING", bin.display()));
                }
            };
            ready_at = at;
            if let Some(a) = line.strip_prefix("LISTENING-UDP ") {
                udp_addr = a.trim().parse().ok();
            } else if let Some(a) = line.strip_prefix("LISTENING ") {
                tcp = a.trim().parse().ok();
            }
        }
        let server = Server {
            child,
            tcp: tcp.expect("loop exits with an address"),
            udp: udp_addr,
            stdout: Some(reader),
        };
        Ok((server, ready_at - t0))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One `/proc/<pid>/status` memory field (`VmRSS`, `VmHWM`), in KiB.
pub fn status_kib(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}
