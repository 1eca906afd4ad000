//! In-process replay of a workload's request stream, untraced and traced.
//!
//! The untraced pass runs each frame through the daemon's own per-request
//! path: `protocol::parse_request`, `PipelineRequest::run_with_store`,
//! the provenance sidecar and artifact, and `ok_response`. The traced
//! pass runs the same frames through the same public functions, called
//! one layer at a time from here, each call wrapped in a span held in
//! memory. Both passes must produce byte-identical results and the same
//! increments of every counter in the process-wide `obs` registry (engine
//! evaluations, generator attempts, view-cache states, store operations,
//! ...), so the per-layer split describes the code the daemon runs: a
//! program change that does less work for the same answer shows as a
//! counter mismatch, or as a traced pass faster than the untraced one.
//! No tracing is added inside the program.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locap_core::request::{CensusFamily, IdAlgo, OiAlgo, PipelineRequest, PIPELINE_STORE_NS};
use locap_core::{eds_lower, hom_lift, homogeneous, oi_to_po::PoFromOi, ramsey};
use locap_graph::budget::{Budgeted, MonotonicClock, StdClock};
use locap_graph::{gen, product, Graph, RunBudget};
use locap_lifts::ViewCache;
use locap_models::run;
use locap_num::Ratio;
use locap_obs as obs;
use locap_obs::json::Json;
use locap_problems::{approx_ratio, independent_set, vertex_cover};
use locap_serve::protocol::{ok_response, parse_request, BudgetSpec, Request};
use locap_serve::provenance;
use locap_store::StoreHandle;

use crate::gen::{frame, Stream};

/// The daemon's default deadline and deadline clamp, as the benchmark
/// starts it.
const DEFAULT_DEADLINE: Duration = Duration::from_millis(crate::daemon::DEADLINE_MS);
const MAX_DEADLINE: Duration = Duration::from_millis(crate::daemon::DEADLINE_MS);

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans kept in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let at = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(SpanRec { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        self.spans[at].end_ns = self.now_ns();
        out
    }

    /// Per-layer call count, inclusive time and self time (inclusive
    /// minus the time its child spans cover).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Where one replay pass keeps its store, artifacts and clock.
struct Env {
    store: Option<StoreHandle>,
    artifacts: Option<PathBuf>,
    clock: Arc<dyn MonotonicClock>,
}

impl Env {
    fn new(dir: &Path, with_store: bool) -> Result<Env, String> {
        let store = with_store
            .then(|| StoreHandle::open(dir.join("store")).map_err(|e| e.to_string()))
            .transpose()?;
        let artifacts = with_store.then(|| dir.join("artifacts"));
        if let Some(a) = &artifacts {
            std::fs::create_dir_all(a).map_err(|e| e.to_string())?;
        }
        Ok(Env { store, artifacts, clock: Arc::new(StdClock::new()) })
    }

    fn budget(&self) -> RunBudget {
        BudgetSpec::default().realize(&self.clock, Some(DEFAULT_DEADLINE), Some(MAX_DEADLINE))
    }

    fn write_artifact(
        &self,
        dir: &Path,
        req: &PipelineRequest,
        id: &Json,
        elapsed_ms: u64,
        delta: &obs::Snapshot,
        result: &Json,
    ) -> Result<(), String> {
        let side =
            provenance::sidecar("locapd", req.pipeline(), req.params_json(), elapsed_ms, delta);
        let path = dir.join(format!("{}.json", provenance::artifact_stem(req.pipeline(), id)));
        provenance::write_artifact(&path, result, &side)
            .map(drop)
            .map_err(|e| e.to_string())
    }
}

/// The daemon's per-request path, as one call per stage.
fn serve_untraced(env: &Env, line: &[u8]) -> Result<String, String> {
    let (id, req, spec) = match parse_request(line).map_err(|e| e.to_string())? {
        Request::Ping { id } => {
            return Ok(format!("{}\n", ok_response(&id, "ping", 0, Json::Obj(vec![]))))
        }
        Request::Pipeline { id, request, budget } => (id, request, budget),
        _ => return Err("unexpected op in a replayed stream".into()),
    };
    let before = env.artifacts.as_ref().map(|_| obs::snapshot());
    let budget = spec.realize(&env.clock, Some(DEFAULT_DEADLINE), Some(MAX_DEADLINE));
    let t0 = Instant::now();
    let result = req.run_with_store(&budget, env.store.as_ref()).map_err(|e| e.to_string())?;
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    if let (Some(dir), Some(before)) = (&env.artifacts, before) {
        let delta = obs::snapshot().delta(&before);
        env.write_artifact(dir, &req, &id, elapsed_ms, &delta, &result)?;
    }
    Ok(format!("{}\n", ok_response(&id, req.pipeline(), elapsed_ms, result)))
}

/// The same path, one public call per layer, each in a span.
fn serve_traced(t: &mut Tracer, env: &Env, line: &[u8]) -> Result<String, String> {
    let (id, req) = t.span("protocol.parse_request", |t| -> Result<_, String> {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        if doc.get("op").is_some() {
            return Ok((id, None));
        }
        let pipeline = doc.get("pipeline").and_then(Json::as_str).ok_or("no pipeline")?;
        let empty = Json::Obj(Vec::new());
        let params = doc.get("params").unwrap_or(&empty);
        let req = t.span("core.request_parse", |_| PipelineRequest::parse(pipeline, params));
        Ok((id, Some(req.map_err(|e| e.to_string())?)))
    })?;
    let Some(req) = req else {
        return Ok(t.span("protocol.encode_response", |_| {
            format!("{}\n", ok_response(&id, "ping", 0, Json::Obj(vec![])))
        }));
    };
    let before = env.artifacts.as_ref().map(|_| t.span("obs.snapshot", |_| obs::snapshot()));
    let budget = env.budget();
    let t0 = Instant::now();
    let result = t.span("core.run", |t| run_layers(t, env, &req, &budget))?;
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    if let (Some(dir), Some(before)) = (&env.artifacts, before) {
        let delta = t.span("obs.snapshot", |_| obs::snapshot().delta(&before));
        t.span("provenance.write_artifact", |_| {
            env.write_artifact(dir, &req, &id, elapsed_ms, &delta, &result)
        })?;
    }
    Ok(t.span("protocol.encode_response", |_| {
        format!("{}\n", ok_response(&id, req.pipeline(), elapsed_ms, result))
    }))
}

fn complete<T, E: std::fmt::Display>(run: Result<Budgeted<T>, E>) -> Result<T, String> {
    let run = run.map_err(|e| e.to_string())?;
    match run.truncation {
        None => Ok(run.value),
        Some(reason) => Err(format!("truncated: {reason:?}")),
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn num(f: &mut Vec<(String, Json)>, name: &str, x: usize) {
    f.push((name.to_string(), Json::Num(x as f64)));
}

fn ratio(f: &mut Vec<(String, Json)>, name: &str, r: Option<Ratio>) {
    match r {
        Some(r) => {
            f.push((name.to_string(), Json::Str(r.to_string())));
            f.push((format!("{name}_f64"), Json::Num(r.to_f64())));
        }
        None => f.push((name.to_string(), Json::Null)),
    }
}

fn feasible(algo: OiAlgo, g: &Graph, x: &std::collections::BTreeSet<usize>) -> bool {
    match algo {
        OiAlgo::VcNonMin => vertex_cover::feasible(g, x),
        OiAlgo::IsLocalMin => independent_set::feasible(g, x),
    }
}

fn opt_value(algo: OiAlgo, g: &Graph) -> usize {
    match algo {
        OiAlgo::VcNonMin => vertex_cover::opt_value(g),
        OiAlgo::IsLocalMin => independent_set::opt_value(g),
    }
}

/// `PipelineRequest::run_with_store`, one layer call at a time. This
/// mirrors `run_with_store` and the private `run_census`, `run_eds_lower`,
/// `run_oi_to_po`, `run_transfer` and `run_ramsey` of
/// `crates/core/src/request.rs`; when those change, change this too (the
/// replay's result and counter comparison flags the runs that differ).
fn run_layers(
    t: &mut Tracer,
    env: &Env,
    req: &PipelineRequest,
    budget: &RunBudget,
) -> Result<Json, String> {
    if let Some(reason) = budget.check_interrupt() {
        return Err(format!("truncated: {reason:?}"));
    }
    let keyed = env.store.as_ref().map(|s| (s, req.store_key()));
    if let Some((s, key)) = &keyed {
        if let Some(doc) = t.span("store.get", |_| s.get(PIPELINE_STORE_NS, key)) {
            return Ok(doc);
        }
    }
    let result = match *req {
        PipelineRequest::Census { family, radius } => census(t, env, family, radius, budget),
        PipelineRequest::EdsLower { delta_prime, n } => eds(t, delta_prime, n, budget),
        PipelineRequest::OiToPo { algo, cycle, m } => oi_to_po(t, algo, cycle, m, budget),
        PipelineRequest::Transfer { algo, cycle, m } => transfer(t, algo, cycle, m, budget),
        PipelineRequest::Ramsey { algo, universe, r, m } => ramsey(t, algo, universe, r, m, budget),
        PipelineRequest::Homogeneous { .. } | PipelineRequest::HomLift { .. } => {
            Err(format!("{} is not generated by any workload", req.pipeline()))
        }
    }?;
    if let Some((s, key)) = &keyed {
        t.span("store.put", |_| s.put(PIPELINE_STORE_NS, key, &result).ok());
    }
    Ok(result)
}

fn census(
    t: &mut Tracer,
    env: &Env,
    family: CensusFamily,
    radius: usize,
    budget: &RunBudget,
) -> Result<Json, String> {
    let (d, name) = t.span("graph.build", |_| match family {
        CensusFamily::DirectedCycle { n } => {
            (gen::directed_cycle(n), format!("directed-cycle({n})"))
        }
        CensusFamily::Toroidal { k, m } => (product::toroidal(k, m), format!("toroidal({k},{m})")),
    });
    let per_radius = t.span("lifts.census", |_| -> Result<Vec<Json>, String> {
        let mut cache = ViewCache::new(&d);
        let mut rows = Vec::new();
        for r in 1..=radius {
            if let Some(reason) = budget.check_interrupt().or_else(|| budget.check_rounds(r - 1)) {
                return Err(format!("truncated: {reason:?}"));
            }
            let census = match &env.store {
                Some(s) => cache.try_census_stored(r, budget.cache_cap(), s),
                None => cache.try_census(r, budget.cache_cap()),
            }
            .map_err(|reason| format!("truncated: {reason:?}"))?;
            rows.push(Json::Obj(vec![
                ("radius".into(), Json::Num(r as f64)),
                ("classes".into(), Json::Num(census.len() as f64)),
            ]));
        }
        Ok(rows)
    })?;
    Ok(Json::Obj(vec![
        ("family".into(), Json::Str(name)),
        ("nodes".into(), Json::Num(d.node_count() as f64)),
        ("radius".into(), Json::Num(radius as f64)),
        ("per_radius".into(), Json::Arr(per_radius)),
    ]))
}

fn eds(t: &mut Tracer, delta_prime: usize, n: usize, budget: &RunBudget) -> Result<Json, String> {
    let (inst, rep) = t.span("core.eds_lower", |_| -> Result<_, String> {
        let inst = eds_lower::eds_instance(delta_prime, n).ok_or("no EDS instance")?;
        let rep = eds_lower::lower_bound_report_budgeted(&inst, budget).map_err(err)?;
        Ok((inst, rep))
    })?;
    let bound = eds_lower::eds_bound(delta_prime);
    let mut f = Vec::new();
    num(&mut f, "n", rep.n);
    num(&mut f, "delta_prime", delta_prime);
    num(&mut f, "lift_degree", inst.lift_degree);
    num(&mut f, "opt", rep.opt);
    num(&mut f, "min_symmetric", rep.min_symmetric);
    num(&mut f, "view_classes", rep.view_classes);
    ratio(&mut f, "ratio", Some(rep.ratio));
    ratio(&mut f, "bound", Some(bound));
    f.push(("tight".into(), Json::Bool(rep.ratio == bound)));
    Ok(Json::Obj(f))
}

fn oi_to_po(
    t: &mut Tracer,
    algo: OiAlgo,
    cycle: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, String> {
    let h = t.span("core.homogeneous", |_| homogeneous::construct_budgeted(1, 1, m, budget));
    let h = h.map_err(err)?;
    let b = t.span("core.oi_to_po", |_| PoFromOi::from_homogeneous(algo, &h)).map_err(err)?;
    let g = t.span("graph.build", |_| gen::directed_cycle(cycle));
    let bits = complete(t.span("models.run_vertex", |_| run::po_vertex_budgeted(&g, &b, budget)))?;
    let set = run::to_vertex_set(&bits);
    let und = t.span("graph.build", |_| g.underlying_simple());
    let ok = t.span("problems.feasible", |_| feasible(algo, &und, &set));
    let opt = t.span("problems.opt_value", |_| opt_value(algo, &und));
    let mut f = vec![("algo".to_string(), Json::Str(algo.name().into()))];
    num(&mut f, "nodes", g.node_count());
    num(&mut f, "m", m as usize);
    num(&mut f, "selected", set.len());
    f.push(("feasible".into(), Json::Bool(ok)));
    num(&mut f, "opt", opt);
    ratio(&mut f, "ratio", approx_ratio(set.len(), opt, algo.goal()));
    Ok(Json::Obj(f))
}

fn transfer(
    t: &mut Tracer,
    algo: OiAlgo,
    cycle: usize,
    m: u64,
    budget: &RunBudget,
) -> Result<Json, String> {
    let h = t.span("core.homogeneous", |_| homogeneous::construct_budgeted(1, 1, m, budget));
    let h = h.map_err(err)?;
    let g = t.span("graph.build", |_| gen::directed_cycle(cycle));
    let lift = t.span("core.hom_lift", |_| hom_lift::homogeneous_lift(&g, &h)).map_err(err)?;
    let b = t.span("core.oi_to_po", |_| PoFromOi::from_homogeneous(algo, &h)).map_err(err)?;
    let lift_und = t.span("graph.build", |_| lift.lift.underlying_simple());
    let a_out = complete(t.span("models.run_vertex", |_| {
        run::oi_vertex_budgeted(&lift_und, &lift.rank, &algo, budget)
    }))?;
    let b_out =
        complete(t.span("models.run_vertex", |_| run::po_vertex_budgeted(&lift.lift, &b, budget)))?;
    let same = a_out.iter().zip(&b_out).filter(|(x, y)| x == y).count();
    let agreement = Ratio::new(same as i128, a_out.len() as i128).map_err(|_| "empty lift")?;
    let b_g = complete(t.span("models.run_vertex", |_| run::po_vertex_budgeted(&g, &b, budget)))?;
    t.span("core.transfer", |_| {
        (0..lift.lift.node_count()).all(|v| b_out[v] == b_g[lift.phi.image(v)])
    })
    .then_some(())
    .ok_or("B is not lift-invariant")?;
    let b_set = run::to_vertex_set(&b_g);
    let g_und = t.span("graph.build", |_| g.underlying_simple());
    let ok = t.span("problems.feasible", |_| feasible(algo, &g_und, &b_set));
    let opt = t.span("problems.opt_value", |_| opt_value(algo, &g_und));
    let mut f = vec![("algo".to_string(), Json::Str(algo.name().into()))];
    num(&mut f, "base_nodes", g.node_count());
    num(&mut f, "m", m as usize);
    num(&mut f, "lift_nodes", lift.node_count());
    ratio(&mut f, "agreement", Some(agreement));
    ratio(&mut f, "alpha", Some(h.fraction()));
    num(&mut f, "a_on_lift", a_out.iter().filter(|&&x| x).count());
    num(&mut f, "b_on_lift", b_out.iter().filter(|&&x| x).count());
    num(&mut f, "b_size", b_set.len());
    f.push(("feasible".into(), Json::Bool(ok)));
    num(&mut f, "opt", opt);
    ratio(&mut f, "ratio", approx_ratio(b_set.len(), opt, algo.goal()));
    Ok(Json::Obj(f))
}

fn ramsey(
    t: &mut Tracer,
    algo: IdAlgo,
    universe: u64,
    r: usize,
    m: usize,
    budget: &RunBudget,
) -> Result<Json, String> {
    let ids: Vec<u64> = (1..=universe).collect();
    let found =
        t.span("core.ramsey", |_| ramsey::ramsey_cycle_transfer_budgeted(algo, &ids, r, m, budget));
    let Some((oi, j, bit)) = found.map_err(err)? else {
        return Ok(Json::Obj(vec![
            ("algo".into(), Json::Str(algo.name().into())),
            ("found".into(), Json::Bool(false)),
        ]));
    };
    let verified = t.span("core.ramsey", |_| ramsey::verify_monochromatic(&algo, &j, r, bit));
    let g = t.span("graph.build", |_| gen::cycle(j.len().max(3)));
    let a_out =
        complete(t.span("models.run_vertex", |_| run::id_vertex_budgeted(&g, &j, &algo, budget)))?;
    let mut order: Vec<(usize, u64)> = j.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, id)| id);
    let mut rank = vec![0usize; j.len()];
    for (p, (v, _)) in order.into_iter().enumerate() {
        rank[v] = p;
    }
    let b_out =
        complete(t.span("models.run_vertex", |_| run::oi_vertex_budgeted(&g, &rank, &oi, budget)))?;
    Ok(Json::Obj(vec![
        ("algo".into(), Json::Str(algo.name().into())),
        ("found".into(), Json::Bool(true)),
        ("j".into(), Json::Arr(j.iter().map(|&x| Json::Num(x as f64)).collect())),
        ("forced_bit".into(), Json::Bool(bit)),
        ("verified".into(), Json::Bool(verified)),
        ("agreement_f64".into(), Json::Num(run::agreement(&a_out, &b_out))),
    ]))
}

/// What the two replay passes measured.
#[derive(Debug)]
pub struct Report {
    /// Requests replayed by each pass.
    pub requests: u64,
    pub untraced: Duration,
    pub traced: Duration,
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Requests whose traced response differs from the untraced one, and
    /// counters whose increments differ between the passes.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Traced wall time no span covers (loop, frame building, budgets).
    pub fn unattributed_ns(&self) -> i128 {
        let covered: u64 = self.layers.values().map(|l| l.self_ns).sum();
        self.traced.as_nanos() as i128 - covered as i128
    }
}

/// The `result` bytes of a response line, for comparing passes.
fn result_bytes(line: &str) -> &str {
    line.find(",\"result\":").map_or(line, |at| &line[at..])
}

/// Requests per chunk of the interleaved passes.
const CHUNK: usize = 64;

/// Counter increments by name.
type Counts = BTreeMap<String, u64>;

fn add_counts(into: &mut Counts, delta: &obs::Snapshot) {
    for (name, n) in &delta.counters {
        *into.entry(name.clone()).or_default() += n;
    }
}

/// Replays up to `max_requests` of `stream` in-process: a short warm-up,
/// then an untraced and a traced pass over the same requests, each with a
/// fresh store and artifact directory under `dir`. The passes alternate
/// in chunks of `CHUNK` requests, with the order flipped every chunk, so
/// that both see the same machine conditions; they stop once the
/// untraced pass has run for `pass_time`.
pub fn replay(
    stream: &Stream,
    with_store: bool,
    max_requests: u64,
    pass_time: Duration,
    dir: &Path,
) -> Result<Report, String> {
    let frames: Vec<String> = (0..max_requests).map(|i| frame(i, stream.get(i))).collect();
    let bytes = |i: usize| frames[i].trim_end().as_bytes();

    let warm = Env::new(&dir.join("warm"), with_store)?;
    let end = Instant::now() + pass_time / 4;
    for i in 0..frames.len() {
        if Instant::now() >= end {
            break;
        }
        serve_untraced(&warm, bytes(i))?;
    }

    let plain = Env::new(&dir.join("untraced"), with_store)?;
    let traced_env = Env::new(&dir.join("traced"), with_store)?;
    let mut tracer = Tracer::new();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut untraced_counts, mut traced_counts) = (Counts::new(), Counts::new());
    let mut mismatches = Vec::new();
    let mut done = 0;
    while done < frames.len() && untraced < pass_time {
        let chunk = done..(done + CHUNK).min(frames.len());
        let mut replies = (Vec::new(), Vec::new());
        let flip = (done / CHUNK) % 2 == 1;
        for trace_this in [flip, !flip] {
            let before = obs::snapshot();
            let started = Instant::now();
            for i in chunk.clone() {
                if trace_this {
                    replies.1.push(serve_traced(&mut tracer, &traced_env, bytes(i))?);
                } else {
                    replies.0.push(serve_untraced(&plain, bytes(i))?);
                }
            }
            let took = started.elapsed();
            let counts = obs::snapshot().delta(&before);
            if trace_this {
                traced += took;
                add_counts(&mut traced_counts, &counts);
            } else {
                untraced += took;
                add_counts(&mut untraced_counts, &counts);
            }
        }
        for (i, (want, got)) in chunk.clone().zip(replies.0.iter().zip(&replies.1)) {
            if result_bytes(got) != result_bytes(want) {
                mismatches.push(format!("request {i}: traced {got:?} vs untraced {want:?}"));
            }
        }
        done = chunk.end;
    }
    mismatches.extend(counter_mismatches(&untraced_counts, &traced_counts));
    Ok(Report { requests: done as u64, untraced, traced, layers: tracer.layers(), mismatches })
}

/// Counters whose increments differ between the untraced and the traced
/// pass.
fn counter_mismatches(untraced: &Counts, traced: &Counts) -> Vec<String> {
    let names: std::collections::BTreeSet<&String> = untraced.keys().chain(traced.keys()).collect();
    names
        .into_iter()
        .filter_map(|name| {
            let u = untraced.get(name).copied().unwrap_or(0);
            let t = traced.get(name).copied().unwrap_or(0);
            (u != t).then(|| format!("counter {name}: untraced +{u}, traced +{t}"))
        })
        .collect()
}

/// Tests that read the process-wide `obs` registry hold this, so that no
/// other test adds to its counters meanwhile.
#[cfg(test)]
pub static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn self_times_exclude_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            std::thread::sleep(Duration::from_millis(1));
        });
        let l = t.layers();
        let (outer, inner) = (l["outer"], l["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.self_ns >= 2_000_000 && outer.self_ns >= 1_000_000);
    }

    #[test]
    fn traced_layers_reproduce_every_workload_exactly() {
        let _obs = OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for w in Workload::ALL {
            let dir = std::env::temp_dir().join(format!(
                "perfbench-replay-{}-{}",
                w.name(),
                std::process::id()
            ));
            let stream = Stream::with_len(w, 5, 64);
            let rep = replay(&stream, w.uses_store(true), 40, Duration::from_secs(60), &dir)
                .expect("replay runs");
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(rep.requests, 40, "{}", w.name());
            assert!(rep.mismatches.is_empty(), "{}: {:?}", w.name(), rep.mismatches);
            assert!(rep.unattributed_ns() >= 0, "{}", w.name());
        }
    }

    #[test]
    fn counter_drift_is_reported() {
        let snap = |pairs: &[(&str, u64)]| -> Counts {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let same = snap(&[("engine/po/evals", 7)]);
        assert!(counter_mismatches(&same, &same).is_empty());
        let fewer = snap(&[("engine/po/evals", 3)]);
        let missing = snap(&[]);
        assert_eq!(counter_mismatches(&same, &fewer).len(), 1);
        assert_eq!(
            counter_mismatches(&same, &missing),
            vec!["counter engine/po/evals: untraced +7, traced +0".to_string()]
        );
    }
}
