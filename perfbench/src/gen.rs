//! Seeded request streams, one per workload.
//!
//! A stream is a pure function of `(workload, seed)`: the same seed gives
//! the same requests in the same order, and the daemon only ever sees
//! the generated frames. Clients draw indices from a shared counter, so
//! the requests sent in a run are a prefix of the stream.

use locap_core::request::{CensusFamily, IdAlgo, OiAlgo, PipelineRequest};
use locap_obs::json::Json;

/// SplitMix64: a small, fully specified generator, so streams do not
/// depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// A deterministic 64-bit mix of two words (used to derive per-purpose
/// seeds and the correctness-sample choice).
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.rotate_left(32) ^ 0xD6E8_FEB8_6659_FD93).next_u64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CensusEngine,
    SolverMix,
    ConnChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CensusEngine, Workload::SolverMix, Workload::ConnChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusEngine => "census_engine",
            Workload::SolverMix => "solver_mix",
            Workload::ConnChurn => "conn_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every request opens its own TCP connection.
    pub fn fresh_connections(self) -> bool {
        self == Workload::ConnChurn
    }

    /// The daemon runs with `--store-dir` and `--artifact-dir`: only in
    /// traced `conn_churn` runs, which measure the store, provenance and
    /// `obs::snapshot` layers. On a 2-vCPU VM the file writes made every
    /// untraced figure that saw them drift from run to run (a keep-alive
    /// store workload: p50 0.2 or 1.5 ms, throughput spread 24 to 63%;
    /// `conn_churn` with a store: daemon CPU per request spread 24 to
    /// 26%), too wide for a regression bound.
    pub fn uses_store(self, traced: bool) -> bool {
        self == Workload::ConnChurn && traced
    }

    /// The generator's parameter ranges, and the defects that bound them.
    pub fn ranges(self) -> &'static str {
        match self {
            Workload::CensusEngine => {
                "census: toroidal(2, m 3..=14), toroidal(3, m 3..=6), directed-cycle(n 3..=96), \
                 radius 2..=6, each family 1/3"
            }
            Workload::SolverMix => {
                "blocks of 159 requests, each holding every cell once in a seeded order: \
                 oi-to-po 52 (both algorithms x cycle 3..=28, m 6), transfer 40 (both \
                 algorithms x cycle 3..=22, m 6), eds-lower 43 (delta' 2/4/6 x every n that is a \
                 multiple of 2*delta'-1 up to 77), ramsey 24 (3 algorithms x m 3..=4 x universe \
                 drawn from each quarter of 20..=200, r 1). Bounded by two known defects: \
                 vertex_cover::opt_value is exponential on cycles and ignores the budget \
                 (oi-to-po cycle 50 took 5.1 s, cycle 60 took 183 s), and eds-lower with n > 128 \
                 panics and kills a worker. Ramsey stays at m <= 4: sum-mod3 with m 5 took 0.28 s \
                 at universe 200 and over 20 s at universe 2000"
            }
            Workload::ConnChurn => {
                "fresh connection per request (traced runs: fresh store and artifact dirs): \
                 ping 48%, census \
                 directed-cycle(n 3..=16) radius 1..=2 25% and eds-lower delta' 2 n in \
                 {3,6,9,12} 25% (repeats: warm hits after the first), 2% a ramsey request not \
                 seen before (algorithm x m 3..=4 x universe 20..=12019, drawn without \
                 replacement: cold miss, store write)"
            }
        }
    }
}

/// One generated request: `None` is a `ping`.
pub type Req = Option<PipelineRequest>;

/// The wire frame for request `idx` (its id is the index).
pub fn frame(idx: u64, req: &Req) -> String {
    match req {
        None => format!("{{\"op\":\"ping\",\"id\":{idx}}}\n"),
        Some(r) => {
            let doc = Json::Obj(vec![
                ("id".into(), Json::Num(idx as f64)),
                ("pipeline".into(), Json::Str(r.pipeline().into())),
                ("params".into(), r.params_json()),
            ]);
            format!("{doc}\n")
        }
    }
}

/// A canonical text key for a request (equal requests, equal keys).
pub fn key(req: &Req) -> String {
    match req {
        None => "ping".into(),
        Some(r) => format!("{} {}", r.pipeline(), r.params_json()),
    }
}

/// Streams are this long; a run that outgrows one wraps around (and the
/// wrapped requests count as repeats in `workload.repeat_share`).
pub const STREAM_LEN: usize = 1 << 18;

#[derive(Debug)]
pub struct Stream {
    reqs: Vec<Req>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream::with_len(workload, seed, STREAM_LEN)
    }

    pub fn with_len(workload: Workload, seed: u64, len: usize) -> Stream {
        let mut rng = Rng::new(mix(seed, workload as u64));
        let reqs = match workload {
            Workload::CensusEngine => (0..len).map(|_| Some(census_engine(&mut rng))).collect(),
            Workload::SolverMix => std::iter::repeat_with(|| solver_mix_block(&mut rng))
                .flatten()
                .take(len)
                .map(Some)
                .collect(),
            Workload::ConnChurn => conn_churn(&mut rng, len),
        };
        Stream { reqs }
    }

    pub fn get(&self, idx: u64) -> &Req {
        &self.reqs[(idx % self.reqs.len() as u64) as usize]
    }
}

fn census(family: CensusFamily, radius: u64) -> PipelineRequest {
    PipelineRequest::Census { family, radius: radius as usize }
}

fn census_engine(rng: &mut Rng) -> PipelineRequest {
    let family = match rng.range(0, 2) {
        0 => CensusFamily::Toroidal { k: 2, m: rng.range(3, 14) as usize },
        1 => CensusFamily::Toroidal { k: 3, m: rng.range(3, 6) as usize },
        _ => CensusFamily::DirectedCycle { n: rng.range(3, 96) as usize },
    };
    census(family, rng.range(2, 6))
}

const OI_ALGOS: [OiAlgo; 2] = [OiAlgo::VcNonMin, OiAlgo::IsLocalMin];
const ID_ALGOS: [IdAlgo; 3] = [IdAlgo::LocalMax, IdAlgo::EvenId, IdAlgo::SumMod3];

/// The `ramsey` universe ranges of `solver_mix`: 20..=200 in quarters.
const RAMSEY_UNIVERSES: [(u64, u64); 4] = [(20, 64), (65, 109), (110, 154), (155, 200)];

/// One block of the `solver_mix` stream: every (pipeline, algorithm,
/// size) cell of the ranges once, in a seeded order. A request's cost
/// grows steeply with its cycle length (in-process, `transfer` at cycle
/// 20..=22 takes 4 to 5 ms, the mean request 1 ms), so an independent draw
/// per request let the number of costly requests, and with it the tail
/// latency, vary from run to run; with whole blocks every second of a run
/// carries the same mix.
fn solver_mix_block(rng: &mut Rng) -> Vec<PipelineRequest> {
    let mut block = Vec::new();
    for algo in OI_ALGOS {
        block.extend((3..=28).map(|cycle| PipelineRequest::OiToPo { algo, cycle, m: 6 }));
        block.extend((3..=22).map(|cycle| PipelineRequest::Transfer { algo, cycle, m: 6 }));
    }
    for delta_prime in [2usize, 4, 6] {
        // n must be a multiple of 2Δ′ − 1
        let step = 2 * delta_prime - 1;
        block.extend(
            (step..=77).step_by(step).map(|n| PipelineRequest::EdsLower { delta_prime, n }),
        );
    }
    for algo in ID_ALGOS {
        for m in 3..=4 {
            for (lo, hi) in RAMSEY_UNIVERSES {
                block.push(PipelineRequest::Ramsey { algo, universe: rng.range(lo, hi), r: 1, m });
            }
        }
    }
    rng.shuffle(&mut block);
    block
}

fn conn_churn(rng: &mut Rng, len: usize) -> Vec<Req> {
    // the novel pool: every (algorithm, m, universe) ramsey request, in a
    // seeded order; novel requests are drawn from it without replacement
    let mut pool: Vec<PipelineRequest> = Vec::new();
    for algo in ID_ALGOS {
        for m in 3..=4 {
            for universe in 20..=12019 {
                pool.push(PipelineRequest::Ramsey { algo, universe, r: 1, m });
            }
        }
    }
    rng.shuffle(&mut pool);
    let mut novel = pool.into_iter().cycle();
    (0..len)
        .map(|_| match rng.range(0, 99) {
            0..=47 => None,
            48..=72 => Some(census(
                CensusFamily::DirectedCycle { n: rng.range(3, 16) as usize },
                rng.range(1, 2),
            )),
            73..=97 => {
                Some(PipelineRequest::EdsLower { delta_prime: 2, n: 3 * rng.range(1, 4) as usize })
            }
            _ => novel.next(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(w: Workload, seed: u64) -> Vec<String> {
        let s = Stream::with_len(w, seed, 500);
        (0..500).map(|i| frame(i, s.get(i))).collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        for w in Workload::ALL {
            assert_eq!(frames(w, 7), frames(w, 7), "{}: stream must repeat", w.name());
            assert_ne!(frames(w, 7), frames(w, 8), "{}: seeds must differ", w.name());
        }
    }

    #[test]
    fn generated_requests_parse_and_stay_in_range() {
        for w in Workload::ALL {
            let s = Stream::with_len(w, 3, 2000);
            for i in 0..2000 {
                let line = frame(i, s.get(i));
                let parsed = locap_serve::protocol::parse_request(line.trim_end().as_bytes());
                assert!(parsed.is_ok(), "{}: {line} must parse", w.name());
                match s.get(i) {
                    Some(PipelineRequest::EdsLower { n, .. }) => assert!(*n <= 128),
                    Some(PipelineRequest::OiToPo { cycle, .. })
                    | Some(PipelineRequest::Transfer { cycle, .. }) => assert!(*cycle <= 28),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn every_solver_mix_block_holds_the_same_cells() {
        // a cell is a request with the ramsey universe replaced by its quarter
        let cell = |r: &Req| match r {
            Some(PipelineRequest::Ramsey { algo, universe, r, m }) => {
                let quarter =
                    RAMSEY_UNIVERSES.iter().position(|&(lo, hi)| (lo..=hi).contains(universe));
                format!("ramsey {} {r} {m} {quarter:?}", algo.name())
            }
            other => key(other),
        };
        let block = solver_mix_block(&mut Rng::new(1)).len() as u64;
        assert_eq!(block, 159);
        let s = Stream::with_len(Workload::SolverMix, 9, 4 * block as usize);
        let cells = |b: u64| {
            let mut v: Vec<String> = (b * block..(b + 1) * block).map(|i| cell(s.get(i))).collect();
            v.sort();
            v
        };
        for b in 1..4 {
            assert_eq!(cells(b), cells(0), "block {b}");
        }
        assert!(cells(0).windows(2).all(|w| w[0] != w[1]), "each cell once");
        let order =
            |b: u64| (b * block..(b + 1) * block).map(|i| key(s.get(i))).collect::<Vec<_>>();
        assert_ne!(order(0), order(1), "blocks are shuffled independently");
    }

    #[test]
    fn conn_churn_mixes_repeats_with_novel_requests() {
        let s = Stream::with_len(Workload::ConnChurn, 11, 4000);
        let mut seen = std::collections::HashSet::new();
        let repeats = (0..4000).filter(|&i| !seen.insert(key(s.get(i)))).count();
        // 2% of the stream is novel, the rest repeats a few dozen requests
        assert!(repeats > 3850 && repeats < 3950, "repeats {repeats}");
    }
}
