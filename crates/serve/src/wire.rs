//! The JSON wire protocol: request parsing and deterministic response
//! rendering, built entirely on `obs::json` (the workspace's in-tree
//! parser/writer — no external serializers).
//!
//! Rendering is deterministic by construction: record maps iterate in
//! `BTreeMap` order, arrays preserve engine order, and no wall-clock
//! value is ever written. Two runs of the same query against the same
//! snapshot generation therefore produce *byte-identical* bodies — the
//! property the response cache and the concurrency tests lean on.

use crate::server::CODE_SERVE_BODY_TOO_DEEP;
use actfort_core::analysis::{AttackChain, ForwardResult, MAX_BACKWARD_PARTIALS};
use actfort_core::metrics::DepthBreakdown;
use actfort_core::obs::json::{self, Json, ParseError};
use actfort_core::query::Engine;
use actfort_core::{
    Countermeasure, EdgeClass, Error, OverlayFactor, UserProfile, UserScore, WhatifReport,
};
use actfort_ecosystem::factor::ServiceId;
use std::fmt::Write as _;

/// How many backward partial states a worker is assumed to explore per
/// millisecond, used to translate a `deadline_ms` into the engine's
/// partial budget. Deliberately conservative (measured throughput on
/// the paper population is higher), so a deadline maps to a budget the
/// search exhausts *within* the deadline, not after it.
pub const DEADLINE_PARTIALS_PER_MS: usize = 2_000;

/// The request envelope every analysis endpoint shares: engine
/// selection, edge-class filter and the deadline/budget bounds. Parsed
/// exactly once per request (by `parse_common`); each endpoint's
/// request struct embeds it, so a new envelope field reaches all four
/// endpoints through one parser.
#[derive(Debug, Clone)]
pub struct RequestCommon {
    /// Engine selector.
    pub engine: Engine,
    /// Edge-class filter (`"all"` / `"login_only"` / `"recovery_only"`,
    /// default all edges).
    pub edge_class: EdgeClass,
    /// Explicit partial budget, if given (backward search only; at most
    /// [`MAX_BACKWARD_PARTIALS`]).
    pub budget: Option<usize>,
    /// Request deadline in milliseconds, if given.
    pub deadline_ms: Option<u64>,
}

impl RequestCommon {
    /// The partial budget the engine should run under: an explicit
    /// `budget` wins; otherwise a `deadline_ms` is translated at
    /// `partials_per_ms` (the server's calibration, default
    /// [`DEADLINE_PARTIALS_PER_MS`]) and clamped to
    /// [`MAX_BACKWARD_PARTIALS`]; otherwise `None` (engine default).
    pub fn effective_budget(&self, partials_per_ms: usize) -> Option<usize> {
        self.budget.or_else(|| {
            self.deadline_ms.map(|ms| {
                (usize::try_from(ms).unwrap_or(usize::MAX))
                    .saturating_mul(partials_per_ms)
                    .clamp(1, MAX_BACKWARD_PARTIALS)
            })
        })
    }
}

fn parse_common(doc: &Json) -> Result<RequestCommon, Error> {
    Ok(RequestCommon {
        engine: field_engine(doc)?,
        edge_class: field_edge_class(doc)?,
        budget: field_usize(doc, "budget")?,
        deadline_ms: field_usize(doc, "deadline_ms")?.map(|n| n as u64),
    })
}

/// A parsed `POST /forward` (or `/v1/forward`) body.
#[derive(Debug, Clone)]
pub struct ForwardRequest {
    /// Seed accounts assumed already compromised (may be empty).
    pub seeds: Vec<ServiceId>,
    /// Prepared-engine `min_providers` memo toggle.
    pub memo: bool,
    /// The shared request envelope.
    pub common: RequestCommon,
}

/// A parsed `POST /backward` (or `/v1/backward`) body.
#[derive(Debug, Clone)]
pub struct BackwardRequest {
    /// The account to derive chains for.
    pub target: ServiceId,
    /// Maximum chains to return.
    pub max_chains: usize,
    /// The shared request envelope (budget/deadline live here).
    pub common: RequestCommon,
}

/// Maximum profiles per `POST /score` batch — a request-shape bound
/// (larger batches should page), not a throughput limit.
pub const MAX_SCORE_PROFILES: usize = 4096;

/// A parsed `POST /score` (or `/v1/score`) body.
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// One entry per user: services held + factor kinds enabled.
    pub profiles: Vec<UserProfile>,
    /// The shared request envelope (the engine field is a schedule knob
    /// here — see [`actfort_core::query::ScoreQuery`]).
    pub common: RequestCommon,
}

/// Ceiling on `severed_chains` per `/whatif` request — a response-size
/// bound (each chain is rendered in full), not a compute limit.
pub const MAX_SEVERED_CHAINS: usize = 64;

/// A parsed `POST /whatif` (or `/v1/whatif`) body.
#[derive(Debug, Clone)]
pub struct WhatifRequest {
    /// The countermeasure set to evaluate (ignored-empty in sweep
    /// mode; any spelling order — evaluation canonicalizes).
    pub countermeasures: Vec<Countermeasure>,
    /// Sweep mode: evaluate every subset of the countermeasure space
    /// (`2^|all()|` reports) in one request.
    pub sweep: bool,
    /// Maximum severed chains reported per evaluated set.
    pub severed_chains: usize,
    /// The shared request envelope.
    pub common: RequestCommon,
}

/// A parsed `POST /admin/reload` body.
#[derive(Debug, Clone)]
pub struct ReloadRequest {
    /// Dataset spelling, handed to [`crate::snapshot::Dataset::parse`].
    pub dataset: String,
}

/// The one JSON parse every `parse_*` decoder starts from. A body nested
/// past [`json::MAX_DEPTH`] fails with [`CODE_SERVE_BODY_TOO_DEEP`]
/// (rendered as a `400`); any other malformation is an [`Error::Query`].
fn parse_body(body: &[u8]) -> Result<Json, Error> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Error::Query("request body is not UTF-8".into()))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Default::default()));
    }
    json::parse(text).map_err(|e| match e {
        ParseError::TooDeep { .. } => Error::Upstream {
            layer: "serve",
            code: CODE_SERVE_BODY_TOO_DEEP,
            message: format!("request body is too deeply nested: {e}"),
        },
        ParseError::Syntax(_) => Error::Query(format!("request body is not valid JSON: {e}")),
    })
}

fn field_usize(doc: &Json, name: &str) -> Result<Option<usize>, Error> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
            Ok(Some(*n as usize))
        }
        Some(_) => Err(Error::Query(format!("\"{name}\" must be a non-negative integer"))),
    }
}

fn field_bool(doc: &Json, name: &str, default: bool) -> Result<bool, Error> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(Error::Query(format!("\"{name}\" must be a boolean"))),
    }
}

fn field_engine(doc: &Json) -> Result<Engine, Error> {
    match doc.get("engine") {
        None | Some(Json::Null) => Ok(Engine::Auto),
        Some(Json::Str(s)) => match s.as_str() {
            // "prepared" is the production engine's older spelling.
            "auto" | "prepared" => Ok(Engine::Auto),
            "naive" => Ok(Engine::Naive),
            other => Err(Error::Query(format!(
                "unknown engine {other:?} (expected \"auto\", \"prepared\" or \"naive\")"
            ))),
        },
        Some(_) => Err(Error::Query("\"engine\" must be a string".into())),
    }
}

fn field_edge_class(doc: &Json) -> Result<EdgeClass, Error> {
    match doc.get("edge_class") {
        None | Some(Json::Null) => Ok(EdgeClass::All),
        Some(Json::Str(s)) => EdgeClass::parse(s).ok_or_else(|| {
            Error::Query(format!(
                "unknown edge class {s:?} (expected \"all\", \"login_only\" or \"recovery_only\")"
            ))
        }),
        Some(_) => Err(Error::Query("\"edge_class\" must be a string".into())),
    }
}

/// The wire spelling of an engine selector (stable; part of the cache
/// key). A request spelled `"prepared"` parses to [`Engine::Auto`], so
/// it shares `"auto"`'s cache entries and renders as `"auto"`.
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Auto => "auto",
        Engine::Naive => "naive",
    }
}

/// Parses a forward request body.
///
/// # Errors
///
/// [`Error::Query`] on malformed JSON or mistyped fields.
pub fn parse_forward(body: &[u8]) -> Result<ForwardRequest, Error> {
    let doc = parse_body(body)?;
    let seeds = match doc.get("seeds") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item {
                Json::Str(s) => Ok(ServiceId::new(s)),
                _ => Err(Error::Query("\"seeds\" must be an array of service ids".into())),
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(Error::Query("\"seeds\" must be an array of service ids".into())),
    };
    Ok(ForwardRequest {
        seeds,
        memo: field_bool(&doc, "memo", true)?,
        common: parse_common(&doc)?,
    })
}

/// Parses a backward request body.
///
/// # Errors
///
/// [`Error::Query`] on malformed JSON, mistyped fields, a missing
/// target, the naive engine (an in-process reference oracle whose cost
/// grows with the budget, not a served engine) or a `budget` above
/// [`MAX_BACKWARD_PARTIALS`].
pub fn parse_backward(body: &[u8]) -> Result<BackwardRequest, Error> {
    let doc = parse_body(body)?;
    let target = match doc.get("target") {
        Some(Json::Str(s)) => ServiceId::new(s),
        _ => return Err(Error::Query("\"target\" must be a service id string".into())),
    };
    let max_chains = field_usize(&doc, "max_chains")?.unwrap_or(8);
    let common = parse_common(&doc)?;
    if common.engine == Engine::Naive {
        return Err(Error::Query(
            "engine \"naive\" is not served for backward queries (expected \"auto\" or \"prepared\")"
                .into(),
        ));
    }
    if let Some(budget) = common.budget.filter(|&b| b > MAX_BACKWARD_PARTIALS) {
        return Err(Error::Query(format!(
            "\"budget\" {budget} exceeds the limit of {MAX_BACKWARD_PARTIALS} partial states"
        )));
    }
    Ok(BackwardRequest { target, max_chains, common })
}

fn parse_profile(item: &Json, index: usize) -> Result<UserProfile, Error> {
    let Json::Obj(_) = item else {
        return Err(Error::Query(format!("\"profiles\"[{index}] must be an object")));
    };
    let services = match item.get("services") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|s| match s {
                Json::Str(s) => Ok(ServiceId::new(s)),
                _ => Err(Error::Query(format!(
                    "\"profiles\"[{index}].services must be an array of service ids"
                ))),
            })
            .collect::<Result<_, _>>()?,
        _ => {
            return Err(Error::Query(format!(
                "\"profiles\"[{index}].services must be an array of service ids"
            )))
        }
    };
    // Factors default to "everything enabled" — the conservative read
    // for a profile that only lists accounts.
    let factors = match item.get("factors") {
        None | Some(Json::Null) => OverlayFactor::ALL,
        Some(Json::Arr(items)) => {
            let mut mask = 0u16;
            for f in items {
                let Json::Str(name) = f else {
                    return Err(Error::Query(format!(
                        "\"profiles\"[{index}].factors must be an array of factor names"
                    )));
                };
                mask |= OverlayFactor::parse(name).ok_or_else(|| {
                    Error::Query(format!(
                        "unknown factor {name:?} in \"profiles\"[{index}] (expected one of {})",
                        OverlayFactor::NAMES
                            .iter()
                            .map(|(n, _)| format!("{n:?}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
            }
            mask
        }
        Some(_) => {
            return Err(Error::Query(format!(
                "\"profiles\"[{index}].factors must be an array of factor names"
            )))
        }
    };
    Ok(UserProfile::new(services, factors))
}

/// Parses a score request body:
/// `{"profiles":[{"services":[...],"factors":[...]}],"engine":"auto"}`.
/// Omitted `factors` means every overlay-controllable kind enabled.
///
/// # Errors
///
/// [`Error::Query`] on malformed JSON, a missing/mistyped `profiles`
/// array, an unknown factor name, or a batch larger than
/// [`MAX_SCORE_PROFILES`].
pub fn parse_score(body: &[u8]) -> Result<ScoreRequest, Error> {
    let doc = parse_body(body)?;
    let profiles = match doc.get("profiles") {
        Some(Json::Arr(items)) => {
            if items.len() > MAX_SCORE_PROFILES {
                return Err(Error::Query(format!(
                    "\"profiles\" holds {} entries; the batch limit is {MAX_SCORE_PROFILES}",
                    items.len()
                )));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, item)| parse_profile(item, i))
                .collect::<Result<Vec<_>, _>>()?
        }
        _ => return Err(Error::Query("\"profiles\" must be an array of profile objects".into())),
    };
    Ok(ScoreRequest { profiles, common: parse_common(&doc)? })
}

/// Parses a whatif request body:
/// `{"countermeasures":["built_in_push",...],"sweep":false,"severed_chains":4}`.
/// All fields are optional; an empty body evaluates the baseline
/// (no-op) set.
///
/// # Errors
///
/// [`Error::Query`] on malformed JSON, an unknown countermeasure name,
/// a `severed_chains` past [`MAX_SEVERED_CHAINS`], or `sweep` combined
/// with an explicit countermeasure list (a sweep evaluates every
/// subset; listing one is contradictory).
pub fn parse_whatif(body: &[u8]) -> Result<WhatifRequest, Error> {
    let doc = parse_body(body)?;
    let countermeasures: Vec<Countermeasure> = match doc.get("countermeasures") {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                let Json::Str(name) = item else {
                    return Err(Error::Query(
                        "\"countermeasures\" must be an array of countermeasure names".into(),
                    ));
                };
                Countermeasure::parse(name).ok_or_else(|| {
                    Error::Query(format!(
                        "unknown countermeasure {name:?} (expected one of {})",
                        Countermeasure::all()
                            .iter()
                            .map(|cm| format!("{:?}", cm.wire_name()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?,
        Some(_) => {
            return Err(Error::Query(
                "\"countermeasures\" must be an array of countermeasure names".into(),
            ))
        }
    };
    let sweep = field_bool(&doc, "sweep", false)?;
    if sweep && !countermeasures.is_empty() {
        return Err(Error::Query(
            "\"sweep\" evaluates every countermeasure subset and cannot be combined with an \
             explicit \"countermeasures\" list"
                .into(),
        ));
    }
    let severed_chains = field_usize(&doc, "severed_chains")?.unwrap_or(4);
    if severed_chains > MAX_SEVERED_CHAINS {
        return Err(Error::Query(format!(
            "\"severed_chains\" is {severed_chains}; the limit is {MAX_SEVERED_CHAINS}"
        )));
    }
    Ok(WhatifRequest { countermeasures, sweep, severed_chains, common: parse_common(&doc)? })
}

/// Parses a reload request body.
///
/// # Errors
///
/// [`Error::Query`] when `"dataset"` is absent or not a string.
pub fn parse_reload(body: &[u8]) -> Result<ReloadRequest, Error> {
    let doc = parse_body(body)?;
    match doc.get("dataset") {
        Some(Json::Str(s)) => Ok(ReloadRequest { dataset: s.clone() }),
        _ => Err(Error::Query("\"dataset\" must be a string".into())),
    }
}

fn write_id_array(out: &mut String, ids: &[ServiceId]) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, id.as_str());
    }
    out.push(']');
}

/// Renders a forward result. Deterministic: same result + generation →
/// same bytes.
pub fn render_forward(
    generation: u64,
    engine: Engine,
    result: &ForwardResult,
) -> Vec<u8> {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"generation\":{generation},\"engine\":\"{}\",\"compromised\":{},",
        engine_name(engine),
        result.records.len()
    );
    out.push_str("\"rounds\":[");
    for (i, round) in result.rounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_id_array(&mut out, round);
    }
    out.push_str("],\"records\":{");
    for (i, (id, rec)) in result.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, id.as_str());
        let _ = write!(out, ":{{\"round\":{},\"min_providers\":{}}}", rec.round, rec.min_providers);
    }
    out.push_str("},\"uncompromised\":");
    write_id_array(&mut out, &result.uncompromised);
    out.push('}');
    out.into_bytes()
}

/// Renders a backward result (chains as arrays of steps, each step an
/// array of service ids). Deterministic.
pub fn render_backward(
    generation: u64,
    engine: Engine,
    target: &ServiceId,
    chains: &[AttackChain],
    exhaustive: bool,
) -> Vec<u8> {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"generation\":{generation},\"engine\":\"{}\",\"target\":",
        engine_name(engine)
    );
    json::write_str(&mut out, target.as_str());
    let _ = write!(out, ",\"exhaustive\":{exhaustive},\"chains\":");
    write_chains(&mut out, chains);
    out.push('}');
    out.into_bytes()
}

/// Renders a score result: one `{blast_radius, weakest_chain}` object
/// per user, input order. Deterministic.
pub fn render_score(generation: u64, engine: Engine, scores: &[UserScore]) -> Vec<u8> {
    let mut out = String::with_capacity(64 + scores.len() * 40);
    let _ = write!(
        out,
        "{{\"generation\":{generation},\"engine\":\"{}\",\"users\":{},\"scores\":[",
        engine_name(engine),
        scores.len()
    );
    for (i, score) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"blast_radius\":{},\"weakest_chain\":{}}}",
            score.blast_radius, score.weakest_chain
        );
    }
    out.push_str("]}");
    out.into_bytes()
}

fn write_breakdown(out: &mut String, b: &DepthBreakdown) {
    let _ = write!(
        out,
        "{{\"direct_pct\":{},\"one_layer_pct\":{},\"two_layer_full_pct\":{},\
         \"two_layer_mixed_pct\":{},\"uncompromisable_pct\":{},\"total\":{}}}",
        b.direct_pct,
        b.one_layer_pct,
        b.two_layer_full_pct,
        b.two_layer_mixed_pct,
        b.uncompromisable_pct,
        b.total
    );
}

fn write_chains(out: &mut String, chains: &[AttackChain]) {
    out.push('[');
    for (i, chain) in chains.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, step) in chain.steps.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_id_array(out, &step.services);
        }
        out.push(']');
    }
    out.push(']');
}

/// Renders a whatif response: one report per evaluated set (1 in
/// single-set mode, 16 in sweep mode), uniform shape either way.
/// Deterministic: breakdown percentages render through `f64`'s
/// shortest round-trip `Display`, countermeasures are in canonical
/// order, and chain/protected arrays preserve engine order.
pub fn render_whatif(generation: u64, reports: &[WhatifReport]) -> Vec<u8> {
    let mut out = String::with_capacity(1024 * reports.len().max(1));
    let _ = write!(out, "{{\"generation\":{generation},\"reports\":[");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"countermeasures\":[");
        for (j, cm) in report.countermeasures.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_str(&mut out, cm.wire_name());
        }
        out.push_str("],\"label\":");
        json::write_str(&mut out, &report.label);
        out.push_str(",\"before\":");
        write_breakdown(&mut out, &report.before);
        out.push_str(",\"after\":");
        write_breakdown(&mut out, &report.after);
        out.push_str(",\"protected\":");
        write_id_array(&mut out, &report.protected);
        out.push_str(",\"severed\":");
        write_chains(&mut out, &report.severed);
        out.push('}');
    }
    out.push_str("]}");
    out.into_bytes()
}

/// Maps a core error to its wire form: `(HTTP status, JSON body)`. The
/// body carries the error's stable discriminant
/// ([`Error::code`]) and kind so clients can match
/// without parsing prose.
pub fn render_error(err: &Error) -> (u16, Vec<u8>) {
    // A too-deep body is the client's fault, though the 24xx block
    // travels as `Error::Upstream`.
    let client = err.is_client_error() || err.code() == CODE_SERVE_BODY_TOO_DEEP;
    let status = if client { 400 } else { 500 };
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"error\":{{\"code\":{},\"kind\":\"{}\",\"message\":", err.code(), err.kind());
    json::write_str(&mut out, &err.to_string());
    out.push_str("}}");
    (status, out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_request_parses_with_defaults_and_rejects_bad_types() {
        let req = parse_forward(b"{}").expect("empty object");
        assert!(req.seeds.is_empty());
        assert_eq!(req.common.engine, Engine::Auto);
        assert_eq!(req.common.edge_class, EdgeClass::All);
        assert!(req.memo);

        let req = parse_forward(br#"{"seeds":["gmail","taobao"],"engine":"naive","memo":false}"#)
            .expect("full form");
        assert_eq!(req.seeds.len(), 2);
        assert_eq!(req.common.engine, Engine::Naive);
        assert!(!req.memo);

        // The older spelling parses, keys and renders as "auto".
        let req = parse_forward(br#"{"engine":"prepared"}"#).expect("prepared engine");
        assert_eq!(req.common.engine, Engine::Auto);
        assert_eq!(engine_name(req.common.engine), "auto");

        assert!(parse_forward(br#"{"seeds":"gmail"}"#).is_err());
        assert!(parse_forward(br#"{"engine":"warp"}"#).is_err());
        assert!(parse_forward(b"not json").is_err());
    }

    #[test]
    fn edge_class_parses_on_every_endpoint_with_a_stable_error() {
        // Every wire spelling round-trips, on every analysis endpoint.
        for class in EdgeClass::all() {
            let body = format!(r#"{{"edge_class":"{}"}}"#, class.wire_name());
            assert_eq!(parse_forward(body.as_bytes()).expect("forward").common.edge_class, class);
            assert_eq!(parse_whatif(body.as_bytes()).expect("whatif").common.edge_class, class);
            let body = format!(r#"{{"target":"alipay","edge_class":"{}"}}"#, class.wire_name());
            assert_eq!(parse_backward(body.as_bytes()).expect("backward").common.edge_class, class);
            let body = format!(r#"{{"profiles":[],"edge_class":"{}"}}"#, class.wire_name());
            assert_eq!(parse_score(body.as_bytes()).expect("score").common.edge_class, class);
        }

        let err = parse_forward(br#"{"edge_class":"sideways"}"#).expect_err("unknown class");
        assert_eq!(err.code(), 11, "edge-class errors use the query discriminant");
        assert_eq!(
            err.to_string(),
            "invalid query: unknown edge class \"sideways\" (expected \"all\", \"login_only\" \
             or \"recovery_only\")"
        );
        assert!(parse_forward(br#"{"edge_class":7}"#).is_err());
    }

    #[test]
    fn backward_request_budget_precedence() {
        let req =
            parse_backward(br#"{"target":"alipay","budget":100,"deadline_ms":1}"#).expect("parses");
        assert_eq!(req.common.effective_budget(DEADLINE_PARTIALS_PER_MS), Some(100));
        let req = parse_backward(br#"{"target":"alipay","deadline_ms":2}"#).expect("parses");
        assert_eq!(
            req.common.effective_budget(DEADLINE_PARTIALS_PER_MS),
            Some(2 * DEADLINE_PARTIALS_PER_MS)
        );
        // A deadline-derived budget is clamped to the cap an explicit
        // budget may not exceed.
        let req = parse_backward(br#"{"target":"alipay","deadline_ms":9007199254740992}"#)
            .expect("parses");
        assert_eq!(
            req.common.effective_budget(DEADLINE_PARTIALS_PER_MS),
            Some(MAX_BACKWARD_PARTIALS)
        );
        let at_cap = format!(r#"{{"target":"alipay","budget":{MAX_BACKWARD_PARTIALS}}}"#);
        assert!(parse_backward(at_cap.as_bytes()).is_ok(), "the cap itself is allowed");
        let req = parse_backward(br#"{"target":"alipay"}"#).expect("parses");
        assert_eq!(req.common.effective_budget(DEADLINE_PARTIALS_PER_MS), None);
        assert_eq!(req.max_chains, 8);
        assert!(parse_backward(b"{}").is_err(), "target is mandatory");
    }

    #[test]
    fn score_request_parses_factors_and_rejects_malformed_batches() {
        let req = parse_score(
            br#"{"profiles":[{"services":["gmail","taobao"],"factors":["sms_code","email_code"]},
                             {"services":[]}],"engine":"prepared"}"#,
        )
        .expect("full form");
        assert_eq!(req.profiles.len(), 2);
        assert_eq!(req.profiles[0].services.len(), 2);
        assert_eq!(
            req.profiles[0].factors,
            OverlayFactor::SMS_CODE | OverlayFactor::EMAIL_CODE
        );
        // Omitted factors default to everything enabled.
        assert_eq!(req.profiles[1].factors, OverlayFactor::ALL);
        assert_eq!(req.common.engine, Engine::Auto);

        // Every wire spelling round-trips through parse_score.
        for (name, bit) in OverlayFactor::NAMES {
            let body = format!(r#"{{"profiles":[{{"services":[],"factors":["{name}"]}}]}}"#);
            let req = parse_score(body.as_bytes()).expect(name);
            assert_eq!(req.profiles[0].factors, bit, "{name}");
        }

        assert!(parse_score(b"{}").is_err(), "profiles is mandatory");
        assert!(parse_score(br#"{"profiles":"x"}"#).is_err());
        assert!(parse_score(br#"{"profiles":[{"services":"gmail"}]}"#).is_err());
        assert!(parse_score(br#"{"profiles":[{"services":[],"factors":["warp"]}]}"#).is_err());
        assert!(parse_score(br#"{"profiles":[{"services":[],"factors":"sms_code"}]}"#).is_err());
        assert!(parse_score(br#"{"profiles":[42]}"#).is_err());
        let oversized = format!(
            r#"{{"profiles":[{}]}}"#,
            vec![r#"{"services":[]}"#; MAX_SCORE_PROFILES + 1].join(",")
        );
        assert!(parse_score(oversized.as_bytes()).is_err(), "batch limit enforced");
    }

    #[test]
    fn whatif_request_parses_with_defaults_and_rejects_bad_shapes() {
        let req = parse_whatif(b"{}").expect("empty object");
        assert!(req.countermeasures.is_empty());
        assert!(!req.sweep);
        assert_eq!(req.severed_chains, 4);

        let req = parse_whatif(
            br#"{"countermeasures":["built_in_push","unified_masking"],"severed_chains":0}"#,
        )
        .expect("full form");
        assert_eq!(
            req.countermeasures,
            vec![Countermeasure::BuiltInPush, Countermeasure::UnifiedMasking],
            "parse preserves spelling order; canonicalization is evaluation's job"
        );
        assert_eq!(req.severed_chains, 0);

        let req = parse_whatif(br#"{"sweep":true}"#).expect("sweep");
        assert!(req.sweep);

        // Every wire spelling round-trips.
        for cm in Countermeasure::all() {
            let body = format!(r#"{{"countermeasures":["{}"]}}"#, cm.wire_name());
            let req = parse_whatif(body.as_bytes())
                .unwrap_or_else(|e| panic!("{}: {e:?}", cm.wire_name()));
            assert_eq!(req.countermeasures, vec![*cm]);
        }

        assert!(parse_whatif(br#"{"countermeasures":"built_in_push"}"#).is_err());
        assert!(parse_whatif(br#"{"countermeasures":[42]}"#).is_err());
        assert!(parse_whatif(br#"{"countermeasures":["warp_drive"]}"#).is_err());
        assert!(parse_whatif(br#"{"sweep":"yes"}"#).is_err());
        assert!(
            parse_whatif(br#"{"sweep":true,"countermeasures":["built_in_push"]}"#).is_err(),
            "sweep contradicts an explicit list"
        );
        let oversized = format!(r#"{{"severed_chains":{}}}"#, MAX_SEVERED_CHAINS + 1);
        assert!(parse_whatif(oversized.as_bytes()).is_err(), "severed cap enforced");
    }

    #[test]
    fn rendered_whatif_parses_back() {
        let breakdown = DepthBreakdown {
            direct_pct: 74.13,
            one_layer_pct: 9.83,
            two_layer_full_pct: 5.2,
            two_layer_mixed_pct: 2.89,
            uncompromisable_pct: 4.44,
            total: 201,
        };
        let report = WhatifReport {
            countermeasures: vec![Countermeasure::UnifiedMasking, Countermeasure::BuiltInPush],
            label: "unified masking + built-in push authentication".to_owned(),
            before: breakdown,
            after: DepthBreakdown { direct_pct: 10.0, uncompromisable_pct: 50.0, ..breakdown },
            protected: vec![ServiceId::new("alipay"), ServiceId::new("gmail")],
            severed: vec![AttackChain { steps: vec![step(&["gmail"]), step(&["alipay"])] }],
        };
        let body = render_whatif(7, std::slice::from_ref(&report));
        let doc = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("parses");
        assert_eq!(doc.get("generation").and_then(Json::as_num), Some(7.0));
        let Some(Json::Arr(reports)) = doc.get("reports") else { panic!("reports array") };
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        let Some(Json::Arr(cms)) = r.get("countermeasures") else { panic!("cms array") };
        assert_eq!(cms[0].as_str(), Some("unified_masking"));
        assert_eq!(cms[1].as_str(), Some("built_in_push"));
        assert_eq!(r.get("before").and_then(|b| b.get("direct_pct")).and_then(Json::as_num), Some(74.13));
        assert_eq!(r.get("after").and_then(|b| b.get("direct_pct")).and_then(Json::as_num), Some(10.0));
        assert_eq!(r.get("after").and_then(|b| b.get("total")).and_then(Json::as_num), Some(201.0));
        let Some(Json::Arr(protected)) = r.get("protected") else { panic!("protected array") };
        assert_eq!(protected.len(), 2);
        let Some(Json::Arr(severed)) = r.get("severed") else { panic!("severed array") };
        assert_eq!(severed.len(), 1);
        // Rendering is deterministic: same input, same bytes.
        assert_eq!(body, render_whatif(7, std::slice::from_ref(&report)));
    }

    fn step(ids: &[&str]) -> actfort_core::analysis::ChainStep {
        actfort_core::analysis::ChainStep {
            services: ids.iter().map(|s| ServiceId::new(s)).collect(),
        }
    }

    #[test]
    fn rendered_score_parses_back_in_input_order() {
        let scores = [
            UserScore { blast_radius: 7, weakest_chain: 3 },
            UserScore { blast_radius: 0, weakest_chain: 0 },
        ];
        let body = render_score(5, Engine::Auto, &scores);
        let doc = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("parses");
        assert_eq!(doc.get("generation").and_then(Json::as_num), Some(5.0));
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("auto"));
        assert_eq!(doc.get("users").and_then(Json::as_num), Some(2.0));
        let Some(Json::Arr(items)) = doc.get("scores") else { panic!("scores array") };
        assert_eq!(items[0].get("blast_radius").and_then(Json::as_num), Some(7.0));
        assert_eq!(items[1].get("weakest_chain").and_then(Json::as_num), Some(0.0));
    }

    #[test]
    fn rendered_responses_parse_back() {
        let result = ForwardResult {
            rounds: vec![vec![], vec![ServiceId::new("a")]],
            records: std::iter::once((
                ServiceId::new("a"),
                actfort_core::analysis::CompromiseRecord { round: 1, min_providers: 0 },
            ))
            .collect(),
            uncompromised: vec![ServiceId::new("b")],
            final_pool: actfort_core::pool::InfoPool::new(),
        };
        let body = render_forward(3, Engine::Auto, &result);
        let doc = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("parses");
        assert_eq!(doc.get("generation").and_then(Json::as_num), Some(3.0));
        assert_eq!(doc.get("engine").and_then(Json::as_str), Some("auto"));

        let body = render_backward(1, Engine::Naive, &ServiceId::new("x"), &[], true);
        let doc = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("parses");
        assert_eq!(doc.get("exhaustive"), Some(&Json::Bool(true)));

        let (status, body) = render_error(&Error::UnknownService("ghost".into()));
        assert_eq!(status, 400);
        let doc = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("parses");
        assert_eq!(doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_num), Some(12.0));
    }
}
