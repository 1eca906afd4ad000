//! Starting, probing and stopping a real `locapd` process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use locap_obs::json::Json;
use locap_obs::telemetry::TelemetryState;

use crate::stats;

/// How long a single request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);
const START_POLL: Duration = Duration::from_micros(100);
/// The daemon's default and longest request deadline. locapd realises
/// every deadline against one clock started with the daemon, so with its
/// defaults (30 s, capped at 300 s) each request that checks its budget
/// fails `truncated/deadline` once the daemon is 30 s old. Ten minutes
/// outlasts any run; no generated request comes near it.
pub const DEADLINE_MS: u64 = 600_000;

/// The directories one daemon runs in: a fresh, empty working directory
/// and, for store runs, fresh store and artifact directories.
#[derive(Debug, Clone)]
pub struct Dirs {
    pub cwd: PathBuf,
    pub store: Option<PathBuf>,
    pub artifacts: Option<PathBuf>,
}

impl Dirs {
    pub fn create(root: &Path, with_store: bool) -> std::io::Result<Dirs> {
        let dir = |name: &str| -> std::io::Result<PathBuf> {
            let path = root.join(name);
            std::fs::create_dir_all(&path)?;
            Ok(path)
        };
        Ok(Dirs {
            cwd: dir("cwd")?,
            store: with_store.then(|| dir("store")).transpose()?,
            artifacts: with_store.then(|| dir("artifacts")).transpose()?,
        })
    }
}

#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub argv: Vec<String>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // only reached without a clean `stop`: never leave a process behind
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Daemon {
    /// Starts `locapd` and returns it with its set-up time: from spawning
    /// the process to the first answered `ping`. The ping is sent once the
    /// daemon has announced its address and its main thread has gone idle
    /// in its accept loop, as a client that waits for the announcement
    /// would find it; the set-up time therefore includes whatever that
    /// loop makes a new connection wait.
    pub fn start(bin: &Path, dirs: &Dirs, workers: usize) -> Result<(Daemon, Duration), String> {
        let port = free_port().map_err(|e| format!("no free port: {e}"))?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let mut argv =
            vec![bin.display().to_string(), "--addr".into(), addr.to_string(), "--workers".into()];
        argv.push(workers.to_string());
        for flag in ["--default-deadline-ms", "--max-deadline-ms"] {
            argv.extend([flag.into(), DEADLINE_MS.to_string()]);
        }
        if let Some(s) = &dirs.store {
            argv.extend(["--store-dir".into(), s.display().to_string()]);
        }
        if let Some(a) = &dirs.artifacts {
            argv.extend(["--artifact-dir".into(), a.display().to_string()]);
        }
        let log = dirs.cwd.join("locapd.stderr");
        let stderr =
            std::fs::File::create(&log).map_err(|e| format!("cannot create daemon log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(&argv[1..])
            .current_dir(&dirs.cwd)
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, addr, argv };
        let pid = daemon.pid();
        let main_state = || {
            let text = std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/stat")).ok()?;
            stats::parse_stat_state(&text)
        };
        let mut announced = false;
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("locapd exited during start-up: {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(format!("locapd did not become idle on {addr}"));
            }
            // the log is read until the announcement; then only the state
            announced = announced
                || std::fs::read_to_string(&log).is_ok_and(|t| t.contains("listening on"));
            if announced && main_state() == Some('S') {
                break;
            }
            // poll without taking a CPU from the starting daemon
            std::thread::sleep(START_POLL);
        }
        let mut conn = Conn::open(addr)?;
        let reply = conn.call("{\"op\":\"ping\",\"id\":\"setup\"}\n")?;
        let setup = started.elapsed();
        if !reply.contains("\"ok\":true") {
            return Err(format!("set-up ping failed: {reply}"));
        }
        Ok((daemon, setup))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A `stats` op on a fresh connection, parsed to a registry state.
    pub fn registry(&self) -> Result<TelemetryState, String> {
        let reply = Conn::open(self.addr)?.call("{\"op\":\"stats\",\"id\":\"stats\"}\n")?;
        let doc = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        let reg = doc
            .get("result")
            .and_then(|r| r.get("registry"))
            .ok_or_else(|| format!("stats reply has no registry: {reply}"))?;
        TelemetryState::from_json(reg)
    }

    /// Process CPU time (user + system, all threads, living or exited).
    pub fn cpu_ns(&self) -> Option<u64> {
        process_cpu_ns(self.pid())
    }

    /// `utime + stime` in clock ticks, as `/proc` reports it.
    pub fn cpu_ticks(&self) -> Option<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        stats::parse_stat_cpu_ticks(&text)
    }

    /// Peak resident set size (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        stats::parse_status_kb(&text, "VmHWM")
    }

    /// Sends `shutdown` and waits for the process to exit; kills it if it
    /// does not exit in time.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = Conn::open(self.addr)
            .and_then(|mut c| c.call("{\"op\":\"shutdown\",\"id\":\"stop\"}\n"))
            .is_ok();
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && acked => return Ok(()),
                Ok(Some(status)) => return Err(format!("locapd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.child.kill().ok();
                    self.child.wait().ok();
                    return Err("locapd did not stop after shutdown; killed".into());
                }
            }
        }
    }
}

/// One keep-alive client connection speaking newline-delimited JSON.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Conn::from_stream(s)
    }

    pub fn from_stream(stream: TcpStream) -> Result<Conn, String> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Writes one frame and reads one response line (without its newline).
    pub fn call(&mut self, frame: &str) -> Result<String, String> {
        self.writer.write_all(frame.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed before a response".into()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("no response: {e}")),
        }
    }
}

/// Process-wide CPU time of `pid` from its POSIX CPU-time clock
/// (nanosecond resolution, where `/proc` counts 10 ms ticks).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the Linux uapi
    let clock = (!(i32::try_from(pid).ok()?) << 3) | 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out like the C
    // `struct timespec` of 64-bit Linux (two 64-bit fields), which is all
    // clock_gettime writes; an invalid clock id only makes it return -1.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns(_pid: u32) -> Option<u64> {
    None
}
