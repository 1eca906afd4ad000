//! Closed-loop clients: each sends its next request only after the
//! previous reply arrived (or failed).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::daemon::Conn;
use crate::gen::{frame, Stream};

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sample {
    /// Stream index (also the request id).
    pub idx: u64,
    /// When the reply arrived, from the start of the phase.
    pub done_ns: u64,
    /// Client-observed latency, including connect on fresh connections.
    pub latency_ns: u64,
    /// The response line, or why there was none.
    pub reply: Result<String, String>,
}

/// The machine's and the daemon's CPU counters at one moment of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// From the start of the phase.
    pub at_ns: u64,
    /// CPU time the hypervisor gave to other guests, and all CPU time,
    /// in `/proc/stat` clock ticks summed over the machine's CPUs.
    pub steal: u64,
    pub total: u64,
    /// The daemon's process CPU time.
    pub cpu_ns: u64,
}

/// What `run`'s counter sampler reads: `(steal, total, daemon cpu_ns)`.
pub type ReadCounters = dyn Fn() -> Option<(u64, u64, u64)> + Sync;

/// How often the counters are sampled during a phase.
const TICK_EVERY: Duration = Duration::from_millis(20);

#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
    /// Counter samples every `TICK_EVERY`, the first at the start and the
    /// last at `wall`; samples that could not be read are left out.
    pub ticks: Vec<Tick>,
}

/// Runs `clients` closed-loop clients over `stream`, starting at index
/// `*next`, until `duration` has passed; requests in flight at the end
/// are completed and included. Advances `*next` past every index sent.
/// A sampler thread reads `counters` every `TICK_EVERY` meanwhile.
pub fn run(
    addr: SocketAddr,
    stream: &Stream,
    fresh: bool,
    clients: usize,
    next: &AtomicU64,
    duration: Duration,
    counters: &ReadCounters,
) -> Phase {
    let out = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let end = started + duration;
    let tick = || {
        let at_ns = started.elapsed().as_nanos() as u64;
        counters().map(|(steal, total, cpu_ns)| Tick { at_ns, steal, total, cpu_ns })
    };
    let (wall, mut ticks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut ticks = Vec::new();
            while !done.load(Ordering::Acquire) {
                ticks.extend(tick());
                std::thread::sleep(TICK_EVERY);
            }
            ticks
        });
        let client_threads: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    let mut conn: Option<Conn> = None;
                    while Instant::now() < end {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        let line = frame(idx, stream.get(idx));
                        let t0 = Instant::now();
                        let reply = send(addr, fresh, &mut conn, &line);
                        let done_ns = started.elapsed().as_nanos() as u64;
                        mine.push(Sample {
                            idx,
                            done_ns,
                            latency_ns: t0.elapsed().as_nanos() as u64,
                            reply,
                        });
                    }
                    out.lock()
                        .expect("no client thread panics while holding the lock")
                        .extend(mine);
                })
            })
            .collect();
        let joined: Vec<_> = client_threads.into_iter().map(|t| t.join()).collect();
        let wall = started.elapsed();
        let last = tick();
        // stop the sampler before any panic below, or the scope never ends
        done.store(true, Ordering::Release);
        let mut ticks = sampler.join().expect("the sampler does not panic");
        assert!(joined.iter().all(Result::is_ok), "a client thread panicked");
        ticks.extend(last);
        (wall, ticks)
    });
    ticks.sort_by_key(|t| t.at_ns);
    let mut samples = out.into_inner().expect("client threads joined");
    samples.sort_by_key(|s| s.idx);
    Phase { samples, wall, ticks }
}

fn send(
    addr: SocketAddr,
    fresh: bool,
    conn: &mut Option<Conn>,
    line: &str,
) -> Result<String, String> {
    if fresh {
        return Conn::open(addr)?.call(line);
    }
    let c = match conn {
        Some(c) => c,
        None => conn.insert(Conn::open(addr)?),
    };
    let reply = c.call(line);
    if reply.is_err() {
        // a timed-out or broken connection may still deliver a stale
        // reply later: never reuse it
        *conn = None;
    }
    reply
}

/// Median of `n` probe round trips: fresh-connection pings (connect to
/// reply) or pings on one keep-alive connection.
pub fn probe_ping_ns(addr: SocketAddr, fresh: bool, n: usize) -> Result<f64, String> {
    let mut conn = None;
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        let reply = send(addr, fresh, &mut conn, &format!("{{\"op\":\"ping\",\"id\":{i}}}\n"))?;
        times.push(t0.elapsed().as_nanos() as f64);
        if !reply.contains("\"ok\":true") {
            return Err(format!("probe ping failed: {reply}"));
        }
    }
    Ok(crate::stats::median(&times))
}
