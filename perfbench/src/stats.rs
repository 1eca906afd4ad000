//! Small numeric helpers: percentiles, `/proc` parsing, and the
//! arithmetic over `stats`-op registry deltas.

use locap_obs::telemetry::TelemetryState;

use crate::load::Tick;

/// The percentiles a latency report may use, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`PERCENTILES`] that has at least ten samples beyond
/// it, or `None` when even the median has fewer (n < 20).
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The number of time slices a window is cut into: one per
/// `min_samples` replies, between 1 and `max_slices`.
pub fn slice_count(replies: usize, min_samples: usize, max_slices: usize) -> usize {
    (replies / min_samples).clamp(1, max_slices)
}

/// The figures of one time slice of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    /// Counted replies per second.
    pub rate: f64,
    /// One latency (ms) per requested percentile.
    pub latency: Vec<f64>,
    /// Daemon CPU time per counted reply (ms).
    pub cpu_ms_per_reply: f64,
    /// Share of the machine's CPU time the hypervisor gave to other guests.
    pub steal: f64,
}

/// The counters at time `t`: the last tick at or before `t`, or the
/// first tick when none is that early.
fn tick_at(ticks: &[Tick], t: u64) -> Option<&Tick> {
    let after = ticks.partition_point(|k| k.at_ns <= t);
    ticks.get(after.saturating_sub(1))
}

/// Cuts a window of `wall_ns` into `n` equal time slices. `replies` holds
/// `(completion time, latency in ms)` of the counted replies and `ticks`
/// the counter samples (ascending), all times from the window's start.
pub fn slices(
    replies: &[(u64, f64)],
    ticks: &[Tick],
    wall_ns: u64,
    n: usize,
    percentiles: &[f64],
) -> Vec<Slice> {
    let (wall_ns, n) = (wall_ns.max(1), n.max(1));
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(done_ns, ms) in replies {
        let at = (done_ns as u128 * n as u128 / wall_ns as u128) as usize;
        lat[at.min(n - 1)].push(ms);
    }
    let slice_s = wall_ns as f64 / 1e9 / n as f64;
    lat.into_iter()
        .enumerate()
        .map(|(i, mut l)| {
            l.sort_by(f64::total_cmp);
            let bound = |j: usize| (wall_ns as u128 * j as u128 / n as u128) as u64;
            let (a, b) = (tick_at(ticks, bound(i)), tick_at(ticks, bound(i + 1)));
            let (steal, cpu_ns) = match a.zip(b) {
                Some((a, b)) => (
                    ratio(b.steal.saturating_sub(a.steal), b.total.saturating_sub(a.total)),
                    b.cpu_ns.saturating_sub(a.cpu_ns),
                ),
                None => (0.0, 0),
            };
            Slice {
                rate: l.len() as f64 / slice_s,
                latency: percentiles.iter().map(|&p| percentile(&l, p)).collect(),
                cpu_ms_per_reply: cpu_ns as f64 / 1e6 / l.len().max(1) as f64,
                steal,
            }
        })
        .collect()
}

/// The indices of the calmest quarter of `slices`: those in which the
/// hypervisor took the least CPU time from this machine, at least a
/// quarter of them (rounded up) and every slice that ties the last one
/// chosen (`/proc/stat` counts steal in 10 ms ticks, so calm slices
/// often tie at 0). Every wall-clock figure of a slice slows with the
/// time stolen in it, and on a shared host the stolen share moves between
/// 0 and 40% within minutes; medians over the calmest slices follow the
/// program more than the neighbours.
pub fn calmest_quarter(slices: &[Slice]) -> Vec<usize> {
    let mut steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
    steal.sort_by(f64::total_cmp);
    let Some(&limit) = steal.get(slices.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..slices.len()).filter(|&i| slices[i].steal <= limit).collect()
}

/// The median of one figure over the chosen slices.
pub fn median_over(slices: &[Slice], chosen: &[usize], figure: impl Fn(&Slice) -> f64) -> f64 {
    median(&chosen.iter().map(|&i| figure(&slices[i])).collect::<Vec<_>>())
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // after the comm field: state is field 3, utime 14, stime 15
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `(steal, total)` CPU time in clock ticks, summed over all CPUs, from
/// the `cpu` line of `/proc/stat`: the time the hypervisor ran other
/// guests on this machine's virtual CPUs, and all time accounted.
pub fn parse_proc_stat_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// The scheduler state letter (`R`, `S`, `D`, ...) from the text of a
/// `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` file.
pub fn parse_stat_state(text: &str) -> Option<char> {
    text[text.rfind(')')? + 1..].split_whitespace().next()?.chars().next()
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Sum of a counter family's increments: every counter whose name
/// starts with `prefix` and ends with `suffix`.
pub fn counter_sum(delta: &TelemetryState, prefix: &str, suffix: &str) -> u64 {
    delta
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

pub fn counter(delta: &TelemetryState, name: &str) -> u64 {
    delta.counters.get(name).copied().unwrap_or(0)
}

/// Observation count and mean (ms) of one request phase across every
/// pipeline's `serve/request/<pipeline>/<phase>` histogram in a delta.
pub fn phase_mean_ms(delta: &TelemetryState, phase: &str) -> (u64, f64) {
    let suffix = format!("/{phase}");
    let (count, sum) = delta
        .latencies
        .iter()
        .filter(|(k, _)| k.starts_with("serve/request/") && k.ends_with(&suffix))
        .fold((0u64, 0u64), |(c, s), (_, h)| (c + h.count, s + h.sum));
    (count, ratio(sum, count) / 1e6)
}

/// Number of series (counters, gauges, span and latency histograms) in
/// a registry capture.
pub fn series(state: &TelemetryState) -> usize {
    state.counters.len() + state.gauges.len() + state.spans.len() + state.latencies.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locap_obs::json::Json;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(99), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(999), Some(90.0));
        assert_eq!(highest_resolved_percentile(1000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolved_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn tick(at_s: u64, steal: u64, total: u64, cpu_ms: u64) -> Tick {
        Tick { at_ns: at_s * 1_000_000_000, steal, total, cpu_ns: cpu_ms * 1_000_000 }
    }

    #[test]
    fn slices_split_replies_steal_and_cpu_by_time() {
        assert_eq!(slice_count(23_000, 1000, 30), 23);
        assert_eq!(slice_count(90_000, 1000, 30), 30);
        assert_eq!(slice_count(1580, 1000, 30), 1);
        assert_eq!(slice_count(0, 1000, 30), 1);
        // four 1 s slices: three with 10 replies of 1 ms, one with 2 of 50 ms
        let mut replies = Vec::new();
        for s in 0..3u64 {
            replies.extend((0..10).map(|i| (s * 1_000_000_000 + i * 1000, 1.0)));
        }
        replies.extend([(3_500_000_000, 50.0), (3_600_000_000, 50.0)]);
        // 200 ticks of machine time a second; slice 3 loses half to steal,
        // slice 1 a tenth; the daemon burns 20 ms of CPU a second
        let ticks = [
            tick(0, 0, 0, 0),
            tick(1, 0, 200, 20),
            tick(2, 20, 400, 40),
            tick(3, 20, 600, 60),
            tick(4, 120, 800, 80),
        ];
        let s = slices(&replies, &ticks, 4_000_000_000, 4, &[50.0, 99.0]);
        assert_eq!(s.iter().map(|s| s.rate).collect::<Vec<_>>(), [10.0, 10.0, 10.0, 2.0]);
        assert_eq!(s.iter().map(|s| s.steal).collect::<Vec<_>>(), [0.0, 0.1, 0.0, 0.5]);
        assert_eq!(s[0].latency, [1.0, 1.0]);
        assert_eq!(s[3].latency, [50.0, 50.0]);
        assert_eq!(s[0].cpu_ms_per_reply, 2.0);
        assert_eq!(s[3].cpu_ms_per_reply, 10.0);
        // the calmest quarter is one slice, widened to the tie at 0 stolen;
        // the slow, robbed slice 3 is out
        let calm = calmest_quarter(&s);
        assert_eq!(calm, [0, 2]);
        assert_eq!(calmest_quarter(&s[1..]), [1]);
        assert_eq!(median_over(&s, &calm, |s| s.rate), 10.0);
        assert_eq!(median_over(&s, &calm, |s| s.latency[1]), 1.0);
        // one slice: the whole window
        let whole = slices(&replies, &ticks, 4_000_000_000, 1, &[99.0]);
        assert_eq!(whole[0].rate, 8.0);
        assert_eq!(whole[0].latency, [50.0]);
        assert_eq!(whole[0].steal, 0.15);
        assert_eq!(calmest_quarter(&whole), [0]);
    }

    #[test]
    fn slice_boundaries_use_the_last_tick_at_or_before_them() {
        let ticks = [tick(0, 0, 0, 0), tick(1, 5, 100, 0), tick(3, 25, 300, 0)];
        assert_eq!(tick_at(&ticks, 0), Some(&ticks[0]));
        assert_eq!(tick_at(&ticks, 2_000_000_000), Some(&ticks[1]));
        assert_eq!(tick_at(&ticks, 9_000_000_000), Some(&ticks[2]));
        assert_eq!(tick_at(&ticks[1..], 0), Some(&ticks[1]));
        assert_eq!(tick_at(&[], 0), None);
        // no ticks: no steal, no CPU; every slice ties
        let s = slices(&[(0, 1.0), (3_000_000_000, 2.0)], &[], 4_000_000_000, 4, &[50.0]);
        assert!(s.iter().all(|s| s.steal == 0.0 && s.cpu_ms_per_reply == 0.0));
        assert_eq!(calmest_quarter(&s), [0, 1, 2, 3]);
        assert!(calmest_quarter(&[]).is_empty());
    }

    #[test]
    fn proc_stat_and_status_parse() {
        let stat = "4242 (locapd (x) y) S 1 4242 4242 0 -1 4194304 123 0 0 0 \
                    250 75 0 0 20 0 5 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(325));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_state(stat), Some('S'));
        assert_eq!(parse_stat_state("1 (a) R 0"), Some('R'));
        assert_eq!(parse_stat_state("garbage"), None);
        let proc_stat =
            "cpu  677734 0 205855 1154479 4925 0 13438 100136 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_proc_stat_steal(proc_stat), Some((100136, 2156567)));
        assert_eq!(parse_proc_stat_steal("cpu  1 2 3\n"), None);
        let status = "Name:\tlocapd\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    fn state(text: &str) -> TelemetryState {
        TelemetryState::from_json(&Json::parse(text).expect("test JSON")).expect("state")
    }

    #[test]
    fn stats_delta_arithmetic() {
        let before = state(
            r#"{"counters":{"store/warm_hit":10,"engine/po/evals":4},"gauges":{},"spans":{},
               "latencies":{"serve/request/census/run":{"count":2,"sum":3000000,"min":1,"max":2,"buckets":[]}}}"#,
        );
        let after = state(
            r#"{"counters":{"store/warm_hit":25,"engine/po/evals":6,"engine/oi/evals":3},"gauges":{},"spans":{},
               "latencies":{"serve/request/census/run":{"count":5,"sum":9000000,"min":1,"max":2,"buckets":[]},
                            "serve/request/ramsey/run":{"count":1,"sum":2000000,"min":1,"max":2,"buckets":[]},
                            "serve/request/ramsey/parse":{"count":1,"sum":7000,"min":1,"max":2,"buckets":[]}}}"#,
        );
        let d = after.delta_since(&before);
        assert_eq!(counter(&d, "store/warm_hit"), 15);
        assert_eq!(counter(&d, "store/cold_miss"), 0);
        assert_eq!(counter_sum(&d, "engine/", "/evals"), 5);
        // (6 ms + 2 ms) over 3 + 1 observations
        let (n, mean) = phase_mean_ms(&d, "run");
        assert_eq!(n, 4);
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!(phase_mean_ms(&d, "queue_wait"), (0, 0.0));
        assert_eq!(series(&after), 6);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
