//! Output checking, run after the timed window: every reply is parsed,
//! matched to its job, compared against the construction-known answer,
//! and its certificate (if any) validated by `pathcons_cert::check`
//! against the snapshot id of the job's canonical key — the
//! `pathcons check --results` procedure. Failures are counted, never
//! dropped.

use crate::gen::Expect;
use pathcons_cert::{self as cert, CertificateBody};
use pathcons_engine::{
    canonicalize, certificate_from_json, snapshot_id, CanonicalQuery, Json, PreparedJob,
};
use std::collections::HashMap;

/// The check of one answered job.
#[derive(Clone, Debug)]
pub struct Checked {
    /// Absolute draw index.
    pub index: usize,
    /// Verdict on the wire (`implied`, `not-implied`, `unknown`,
    /// `error`), or `unparseable`.
    pub verdict: String,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
    /// Definite verdict carrying a certificate the checker accepted.
    pub certified: bool,
    /// Served from the answer cache.
    pub hit: bool,
    /// The engine's `micros` for the job.
    pub micros: u64,
    /// Snapshot id of the job's canonical key.
    pub key: u64,
}

impl Checked {
    /// Answered implied or not-implied.
    pub fn decided(&self) -> bool {
        self.verdict == "implied" || self.verdict == "not-implied"
    }
}

/// What the checker needs to know about job `i` of the stream.
pub struct JobInfo {
    /// The job id the reply must echo.
    pub id: String,
    /// Construction-known answer.
    pub expect: Expect,
}

/// Checks replies. `info(i)` describes stream position `i`;
/// `prepare(i)` rebuilds its query exactly as the program resolved it.
/// Canonical keys and certificate verdicts are memoized per stream
/// position, since cycled streams repeat positions.
pub struct Checker<I, P> {
    info: I,
    prepare: P,
    canon: HashMap<usize, Result<(u64, CanonicalQuery), String>>,
    certs: HashMap<(usize, String), Result<(), String>>,
}

impl<I, P> Checker<I, P>
where
    I: Fn(usize) -> JobInfo,
    P: Fn(usize) -> Result<PreparedJob, String>,
{
    /// A checker over a stream described by `info` and `prepare`.
    pub fn new(info: I, prepare: P) -> Self {
        Checker {
            info,
            prepare,
            canon: HashMap::new(),
            certs: HashMap::new(),
        }
    }

    /// Checks the reply to the job at stream position `pos` (drawn as
    /// absolute index `index`).
    pub fn check(&mut self, index: usize, pos: usize, reply: &str) -> Checked {
        let info = (self.info)(pos);
        let mut out = Checked {
            index,
            verdict: "unparseable".to_owned(),
            failure: None,
            certified: false,
            hit: false,
            micros: 0,
            key: 0,
        };
        let Ok(value) = Json::parse(reply) else {
            out.failure = Some(format!("unparseable reply: {reply}"));
            return out;
        };
        let field = |k: &str| value.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        out.verdict = field("verdict");
        out.hit = field("cache") == "hit";
        out.micros = value.get("micros").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let Checker {
            prepare,
            canon,
            certs,
            ..
        } = self;
        let resolved = canon.entry(pos).or_insert_with(|| {
            prepare(pos).map(|p| {
                let c = canonicalize(&p.context, &p.sigma, &p.phi);
                (snapshot_id(&c.key), c)
            })
        });
        let (key, canon) = match resolved {
            Ok((key, canon)) => (*key, &*canon),
            Err(e) => {
                out.failure = Some(format!("job does not resolve: {e}"));
                return out;
            }
        };
        out.key = key;
        let fail = |why: String| Some(why);
        if field("id") != info.id {
            out.failure = fail(format!("reply id `{}` for job `{}`", field("id"), info.id));
        } else if out.verdict == "error" {
            out.failure = fail(format!("error: {}", field("detail")));
        } else if out.verdict == "unknown" && field("unknown_kind") == "overloaded" {
            out.failure = fail("shed".to_owned());
        } else if !matches!(out.verdict.as_str(), "implied" | "not-implied" | "unknown") {
            out.failure = fail(format!("unexpected verdict `{}`", out.verdict));
        } else if info.expect == Expect::Implied && out.verdict == "not-implied" {
            out.failure = fail("not-implied contradicts the construction (implied)".to_owned());
        }
        if out.failure.is_some() {
            return out;
        }
        if let Some(cert_json) = value.get("certificate") {
            let text = cert_json.to_string();
            let verdict = out.verdict.clone();
            let checked = certs
                .entry((pos, text))
                .or_insert_with(|| check_certificate(cert_json, &verdict, key, canon))
                .clone();
            match checked {
                Ok(()) => out.certified = out.decided(),
                Err(why) => out.failure = Some(format!("certificate rejected: {why}")),
            }
        }
        out
    }
}

/// Validates one wire certificate against the canonical query.
pub fn check_certificate(
    cert_json: &Json,
    verdict: &str,
    key: u64,
    canon: &CanonicalQuery,
) -> Result<(), String> {
    let certificate = certificate_from_json(cert_json)?;
    let class_ok = matches!(
        (&certificate.body, verdict),
        (CertificateBody::Implied(_), "implied")
            | (CertificateBody::NotImplied(_), "not-implied")
            | (CertificateBody::Unknown(_), "unknown")
    );
    if !class_ok {
        return Err(format!(
            "certificate class does not match verdict `{verdict}`"
        ));
    }
    let context = cert::CheckContext {
        snapshot: key,
        sigma: &canon.key.sigma,
        phi: &canon.key.phi,
    };
    match cert::check(&certificate, &context) {
        cert::CheckResult::Valid => Ok(()),
        cert::CheckResult::Invalid(why) => Err(why),
    }
}

/// Verdicts of draws `0..n`, in draw order (`None` where a draw is
/// missing).
pub fn prefix_verdicts(checked: &[Checked], n: usize) -> Vec<Option<String>> {
    let mut out = vec![None; n];
    for c in checked {
        if c.index < n && out[c.index].is_none() {
            out[c.index] = Some(c.verdict.clone());
        }
    }
    out
}
