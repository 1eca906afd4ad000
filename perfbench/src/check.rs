//! Correctness checks on every response: the protocol envelope, the
//! paper's invariants per pipeline, byte-identical repeats from the
//! store, and an exact in-process recomputation of a seeded sample.

use std::collections::HashMap;

use locap_core::request::{CensusFamily, PipelineRequest};
use locap_graph::RunBudget;
use locap_obs::json::Json;

use crate::gen::{key, mix, Req};

/// One in this many responses is recomputed in-process and compared.
pub const SAMPLE_EVERY: u64 = 32;

/// Whether response `idx` belongs to the seeded recomputation sample.
pub fn sampled(seed: u64, idx: u64) -> bool {
    mix(seed ^ 0x5A17, idx).is_multiple_of(SAMPLE_EVERY)
}

/// `4 − 2/Δ′` in lowest terms, as the pipeline prints ratios.
pub fn eds_ratio_text(delta_prime: u64) -> String {
    let (mut num, mut den) = (4 * delta_prime - 2, delta_prime);
    let (mut a, mut b) = (num, den);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    (num, den) = (num / a, den / a);
    if den == 1 {
        num.to_string()
    } else {
        format!("{num}/{den}")
    }
}

fn family_size(family: CensusFamily) -> u64 {
    match family {
        CensusFamily::DirectedCycle { n } => n as u64,
        CensusFamily::Toroidal { k, m } => (m as u64).pow(k as u32),
    }
}

fn field<'a>(doc: &'a Json, name: &str) -> Result<&'a Json, String> {
    doc.get(name).ok_or_else(|| format!("missing field {name:?}"))
}

fn expect_true(doc: &Json, name: &str) -> Result<(), String> {
    match field(doc, name)? {
        Json::Bool(true) => Ok(()),
        other => Err(format!("{name} is {other}, expected true")),
    }
}

/// The paper invariant each pipeline's result must satisfy.
fn check_invariants(req: &PipelineRequest, result: &Json) -> Result<(), String> {
    match *req {
        PipelineRequest::Census { family, radius } => {
            let nodes = field(result, "nodes")?.as_u64();
            if nodes != Some(family_size(family)) {
                return Err(format!("census nodes {nodes:?} != {}", family_size(family)));
            }
            let rows = field(result, "per_radius")?.as_array().map_or(0, <[Json]>::len);
            if rows != radius {
                return Err(format!("census has {rows} per_radius rows for radius {radius}"));
            }
            Ok(())
        }
        PipelineRequest::EdsLower { delta_prime, .. } => {
            expect_true(result, "tight")?;
            let want = eds_ratio_text(delta_prime as u64);
            let got = field(result, "ratio")?.as_str().unwrap_or("");
            if got != want {
                return Err(format!("eds ratio {got} != 4 - 2/{delta_prime} = {want}"));
            }
            Ok(())
        }
        PipelineRequest::OiToPo { .. } | PipelineRequest::Transfer { .. } => {
            expect_true(result, "feasible")
        }
        PipelineRequest::Ramsey { .. } => expect_true(result, "verified"),
        PipelineRequest::Homogeneous { .. } | PipelineRequest::HomLift { .. } => Ok(()),
    }
}

/// The raw bytes of the `result` member of an ok response line, which
/// `ok_response` writes last.
fn raw_result(line: &str) -> Option<&str> {
    let at = line.find(",\"result\":")?;
    line.get(at + 10..line.len().checked_sub(1)?)
}

#[derive(Debug, Default)]
pub struct Checker {
    /// First result bytes seen per request key (store workloads).
    first: HashMap<String, String>,
    pub recomputed: u64,
    pub identical_repeats: u64,
}

impl Checker {
    /// Checks one response to request `idx`; `store` enables the
    /// repeat-identity check, `seed` picks the recomputation sample.
    pub fn check(
        &mut self,
        seed: u64,
        idx: u64,
        req: &Req,
        line: &str,
        store: bool,
    ) -> Result<(), String> {
        let doc = Json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
        if doc.get("id").and_then(Json::as_u64) != Some(idx) {
            return Err(format!("response id does not match request {idx}: {line}"));
        }
        if doc.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("error response: {line}"));
        }
        if let Some(e) = doc.get("artifact_error") {
            return Err(format!("artifact write failed: {e}"));
        }
        let Some(req) = req else { return Ok(()) };
        if doc.get("pipeline").and_then(Json::as_str) != Some(req.pipeline()) {
            return Err(format!("response pipeline mismatch: {line}"));
        }
        let result = field(&doc, "result")?;
        check_invariants(req, result)?;
        if store {
            let raw = raw_result(line).ok_or("no result member")?;
            match self.first.get(&key(&Some(req.clone()))) {
                Some(first) if first != raw => {
                    return Err(format!("repeat result differs from the first: {raw} vs {first}"))
                }
                Some(_) => self.identical_repeats += 1,
                None => {
                    self.first.insert(key(&Some(req.clone())), raw.to_string());
                }
            }
        }
        if sampled(seed, idx) {
            self.recomputed += 1;
            let want = req.run(&RunBudget::unlimited()).map_err(|e| format!("recompute: {e}"))?;
            if &want != result {
                return Err(format!("recomputed result differs: {want} vs {result}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eds_ratio_is_four_minus_two_over_delta_prime() {
        assert_eq!(eds_ratio_text(2), "3");
        assert_eq!(eds_ratio_text(4), "7/2");
        assert_eq!(eds_ratio_text(6), "11/3");
    }

    #[test]
    fn checks_catch_a_wrong_invariant_and_a_wrong_id() {
        let _obs = crate::replay::OBS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let req = Some(PipelineRequest::Census {
            family: CensusFamily::DirectedCycle { n: 12 },
            radius: 2,
        });
        let good = req.as_ref().expect("census").run(&RunBudget::unlimited()).expect("runs");
        let line = |id: u64, result: &Json| {
            format!("{{\"id\":{id},\"ok\":true,\"pipeline\":\"census\",\"elapsed_ms\":0,\"result\":{result}}}")
        };
        let mut c = Checker::default();
        assert_eq!(c.check(1, 5, &req, &line(5, &good), true), Ok(()));
        assert_eq!(c.check(1, 6, &req, &line(6, &good), true), Ok(()));
        assert_eq!(c.identical_repeats, 1);
        assert!(c.check(1, 5, &req, &line(4, &good), false).is_err());
        let Json::Obj(mut fields) = good.clone() else { panic!("census result is an object") };
        fields.retain(|(k, _)| k != "per_radius");
        fields.push(("per_radius".into(), Json::Arr(vec![])));
        assert!(c.check(1, 7, &req, &line(7, &Json::Obj(fields)), false).is_err());
    }
}
