//! Rendered-body response cache for every analysis route (forward,
//! backward, score and whatif).
//!
//! Values are fully rendered JSON bodies (`Arc<Vec<u8>>`), so a hit
//! serves the *exact bytes* a miss rendered — byte-identity between the
//! two paths is structural, not a property the renderer must re-earn.
//! Keys embed the snapshot generation: a hot-swap implicitly invalidates
//! every cached entry without touching the map (stale generations age
//! out through the FIFO bound). Each key carries a query-kind
//! discriminant plus a kind-specific canonical payload, so the four
//! routes' key spaces never collide; backward keys carry the
//! *effective* budget, so a deadline-derived budget caches identically
//! to the equivalent explicit budget.

use crate::obs_names;
use actfort_core::counter::canonical_set;
use actfort_core::obs;
use actfort_core::{Countermeasure, EdgeClass, UserProfile};
use actfort_ecosystem::factor::ServiceId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Cache key: one query, fully canonicalized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Snapshot generation the query ran against.
    pub generation: u64,
    /// Engine selector as its wire spelling (`"auto"`, …).
    pub engine: &'static str,
    /// Query-kind discriminant (`"forward"`, `"backward"`, `"score"`,
    /// `"whatif"`), so the key spaces can never collide however their
    /// payloads are spelled.
    pub kind: &'static str,
    /// Kind-specific canonical payload (see constructors).
    pub payload: String,
}

impl CacheKey {
    /// Key for a forward query. Seeds are sorted and deduplicated, so
    /// every spelling of the same compromised set maps to one entry;
    /// the memo toggle is part of the payload because it selects a
    /// different (byte-identical, but separately computed) code path,
    /// and the edge-class filter is because it selects a different
    /// reachable set.
    pub fn forward(
        generation: u64,
        engine: &'static str,
        class: EdgeClass,
        memo: bool,
        seeds: &[ServiceId],
    ) -> Self {
        let mut ids: Vec<&str> = seeds.iter().map(|s| s.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        Self {
            generation,
            engine,
            kind: "forward",
            payload: format!("{}\n{}\n{}", class.wire_name(), memo, ids.join("\n")),
        }
    }

    /// Key for a backward query: target, edge-class filter, chain cap
    /// and the *effective* partial budget (explicit budget, or the
    /// deadline translated at the server's calibration — both spellings
    /// of the same bound hash to the same entry; an unbounded search is
    /// its own entry).
    pub fn backward(
        generation: u64,
        engine: &'static str,
        class: EdgeClass,
        target: &ServiceId,
        max_chains: usize,
        budget: Option<usize>,
    ) -> Self {
        let budget = budget.map_or_else(|| "none".to_owned(), |b| b.to_string());
        Self {
            generation,
            engine,
            kind: "backward",
            payload: format!("{}\n{}\n{max_chains}\n{budget}", class.wire_name(), target.as_str()),
        }
    }

    /// Key for a whatif query: the canonical (sorted, deduplicated)
    /// countermeasure set — every spelling order of the same set maps
    /// to one entry, mirroring the evaluation itself, which
    /// canonicalizes before hardening — plus the sweep flag and the
    /// severed-chain cap (both change the rendered body). Whatif takes
    /// no engine selector (it always runs the production engine on the
    /// hardened substrate), so its key's engine is always `"auto"`.
    pub fn whatif(
        generation: u64,
        class: EdgeClass,
        cms: &[Countermeasure],
        sweep: bool,
        severed_chains: usize,
    ) -> Self {
        let names: Vec<&str> =
            canonical_set(cms).into_iter().map(Countermeasure::wire_name).collect();
        Self {
            generation,
            engine: "auto",
            kind: "whatif",
            payload: format!(
                "{}\n{sweep}\n{severed_chains}\n{}",
                class.wire_name(),
                names.join("\n")
            ),
        }
    }

    /// Key for a score query: the canonical profile batch. *Within* a
    /// profile, service order and duplicates are canonicalized (sorted,
    /// deduped — same held-set, same entry); *across* profiles, batch
    /// order is preserved, because the response's `scores` array is in
    /// input order and a reordered batch is a different body.
    pub fn score(
        generation: u64,
        engine: &'static str,
        class: EdgeClass,
        profiles: &[UserProfile],
    ) -> Self {
        // Upper bound of the spelling below: a 6-byte mask and a
        // terminator per profile, a newline plus the id per service.
        let len = profiles
            .iter()
            .map(|p| 7 + p.services.iter().map(|s| 1 + s.as_str().len()).sum::<usize>())
            .sum::<usize>();
        let mut payload = String::with_capacity(class.wire_name().len() + 1 + len);
        payload.push_str(class.wire_name());
        payload.push('\x1e');
        let mut ids: Vec<&str> = Vec::new();
        for profile in profiles {
            ids.clear();
            ids.extend(profile.services.iter().map(|s| s.as_str()));
            ids.sort_unstable();
            ids.dedup();
            let _ = write!(payload, "{:#06x}", profile.factors);
            for &id in &ids {
                payload.push('\n');
                payload.push_str(id);
            }
            // Profile terminator: unambiguous because '\x1e' cannot
            // appear in a factor mask spelling and ids are newline-led.
            payload.push('\x1e');
        }
        Self { generation, engine, kind: "score", payload }
    }
}

/// Bounded FIFO map from canonical queries to rendered bodies.
pub struct ResponseCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

struct CacheInner {
    map: HashMap<CacheKey, Arc<Vec<u8>>>,
    order: VecDeque<CacheKey>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` rendered bodies (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner { map: HashMap::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
        }
    }

    /// Looks `key` up, recording an `obs` hit or miss either way.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let found = inner.map.get(key).cloned();
        match found {
            Some(body) => {
                obs::add(obs_names::CACHE_HITS, 1);
                Some(body)
            }
            None => {
                obs::add(obs_names::CACHE_MISSES, 1);
                None
            }
        }
    }

    /// Inserts a rendered body, evicting the oldest entry when full.
    /// Returns the cached body — the already-present one if another
    /// worker raced this insert, so concurrent misses of the same query
    /// still hand every caller identical bytes.
    pub fn insert(&self, key: CacheKey, body: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        let cached = match inner.map.entry(key.clone()) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let cached = Arc::clone(e.insert(body));
                inner.order.push_back(key);
                cached
            }
        };
        obs::observe(obs_names::CACHE_SIZE, inner.map.len() as u64);
        cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, seeds: &[&str]) -> CacheKey {
        let ids: Vec<ServiceId> = seeds.iter().map(|s| ServiceId::new(s)).collect();
        CacheKey::forward(generation, "auto", EdgeClass::All, true, &ids)
    }

    #[test]
    fn seed_order_and_duplicates_canonicalize() {
        assert_eq!(key(1, &["b", "a", "b"]), key(1, &["a", "b"]));
        assert_ne!(key(1, &["a"]), key(2, &["a"]));
    }

    #[test]
    fn edge_class_separates_every_key_space() {
        let ids = [ServiceId::new("a")];
        let t = ServiceId::new("paypal");
        let p = UserProfile::new(vec![ServiceId::new("a")], actfort_core::OverlayFactor::ALL);
        for class in [EdgeClass::LoginOnly, EdgeClass::RecoveryOnly] {
            assert_ne!(
                CacheKey::forward(1, "auto", EdgeClass::All, true, &ids),
                CacheKey::forward(1, "auto", class, true, &ids)
            );
            assert_ne!(
                CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, None),
                CacheKey::backward(1, "auto", class, &t, 8, None)
            );
            assert_ne!(
                CacheKey::whatif(1, EdgeClass::All, &[], false, 4),
                CacheKey::whatif(1, class, &[], false, 4)
            );
            assert_ne!(
                CacheKey::score(1, "auto", EdgeClass::All, std::slice::from_ref(&p)),
                CacheKey::score(1, "auto", class, std::slice::from_ref(&p))
            );
        }
    }

    #[test]
    fn backward_keys_separate_by_target_bound_and_budget() {
        let t = ServiceId::new("paypal");
        let base = CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, None);
        assert_eq!(base, CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, None));
        assert_ne!(base, CacheKey::backward(1, "auto", EdgeClass::All, &t, 4, None));
        assert_ne!(base, CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, Some(100)));
        assert_ne!(base, CacheKey::backward(2, "auto", EdgeClass::All, &t, 8, None));
        assert_ne!(base, CacheKey::backward(1, "naive", EdgeClass::All, &t, 8, None));
        // An explicit budget and the same deadline-derived budget are
        // the same entry.
        assert_eq!(
            CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, Some(2000)),
            CacheKey::backward(1, "auto", EdgeClass::All, &t, 8, Some(2000)),
        );
    }

    #[test]
    fn score_keys_canonicalize_within_profiles_but_preserve_batch_order() {
        use actfort_core::OverlayFactor;
        let p = |ids: &[&str], factors: u16| {
            UserProfile::new(ids.iter().map(|s| ServiceId::new(s)).collect(), factors)
        };
        let all = EdgeClass::All;
        let base = CacheKey::score(1, "auto", all, &[p(&["a", "b"], OverlayFactor::ALL)]);
        // Same held-set, different spelling: one entry.
        assert_eq!(
            base,
            CacheKey::score(1, "auto", all, &[p(&["b", "a", "b"], OverlayFactor::ALL)])
        );
        // Different factors, generation, engine or held-set: distinct.
        assert_ne!(
            base,
            CacheKey::score(1, "auto", all, &[p(&["a", "b"], OverlayFactor::SMS_CODE)])
        );
        assert_ne!(base, CacheKey::score(2, "auto", all, &[p(&["a", "b"], OverlayFactor::ALL)]));
        assert_ne!(base, CacheKey::score(1, "naive", all, &[p(&["a", "b"], OverlayFactor::ALL)]));
        assert_ne!(base, CacheKey::score(1, "auto", all, &[p(&["a"], OverlayFactor::ALL)]));
        // Batch order is significant (scores come back in input order),
        // and profile boundaries cannot be re-split: [a | b] != [a,b].
        let ab = [p(&["a"], OverlayFactor::ALL), p(&["b"], OverlayFactor::ALL)];
        let ba = [p(&["b"], OverlayFactor::ALL), p(&["a"], OverlayFactor::ALL)];
        assert_ne!(CacheKey::score(1, "auto", all, &ab), CacheKey::score(1, "auto", all, &ba));
        assert_ne!(CacheKey::score(1, "auto", all, &ab), base);
        // And the score key space never collides with forward's.
        assert_ne!(
            CacheKey::score(1, "auto", all, &[]).kind,
            CacheKey::forward(1, "auto", all, true, &[]).kind
        );
    }

    #[test]
    fn score_key_payload_spelling_is_pinned() {
        use actfort_core::OverlayFactor;
        let p = |ids: &[&str], factors: u16| {
            UserProfile::new(ids.iter().map(|s| ServiceId::new(s)).collect(), factors)
        };
        let batch = [
            p(&["b", "a", "b"], OverlayFactor::SMS_CODE | OverlayFactor::EMAIL_LINK),
            p(&[], OverlayFactor::ALL),
            p(&["z"], 0),
        ];
        let key = CacheKey::score(3, "auto", EdgeClass::LoginOnly, &batch);
        assert_eq!(key.payload, "login_only\x1e0x0005\na\nb\x1e0x03ff\x1e0x0000\nz\x1e");
    }

    #[test]
    fn whatif_keys_canonicalize_the_set_and_separate_the_knobs() {
        use Countermeasure::{BuiltInPush, UnifiedMasking};
        let all = EdgeClass::All;
        let base = CacheKey::whatif(1, all, &[UnifiedMasking, BuiltInPush], false, 4);
        // Spelling order and duplicates collapse to one entry.
        assert_eq!(base, CacheKey::whatif(1, all, &[BuiltInPush, UnifiedMasking], false, 4));
        assert_eq!(
            base,
            CacheKey::whatif(1, all, &[BuiltInPush, UnifiedMasking, BuiltInPush], false, 4)
        );
        // Set, generation, sweep flag and severed cap all separate.
        assert_ne!(base, CacheKey::whatif(1, all, &[UnifiedMasking], false, 4));
        assert_ne!(base, CacheKey::whatif(2, all, &[UnifiedMasking, BuiltInPush], false, 4));
        assert_ne!(base, CacheKey::whatif(1, all, &[UnifiedMasking, BuiltInPush], true, 4));
        assert_ne!(base, CacheKey::whatif(1, all, &[UnifiedMasking, BuiltInPush], false, 8));
        // And the whatif key space never collides with the others.
        assert_ne!(CacheKey::whatif(1, all, &[], false, 4).kind, key(1, &[]).kind);
    }

    #[test]
    fn forward_and_backward_key_spaces_never_collide() {
        // A hostile forward seed spelled like a backward payload still
        // lands in a different key space thanks to the kind tag.
        let forward =
            CacheKey::forward(1, "auto", EdgeClass::All, true, &[ServiceId::new("x\n8\nnone")]);
        let backward = CacheKey::backward(1, "auto", EdgeClass::All, &ServiceId::new("x"), 8, None);
        assert_ne!(forward, backward);
    }

    #[test]
    fn hit_returns_inserted_bytes_and_fifo_evicts() {
        let cache = ResponseCache::new(2);
        let body = Arc::new(b"{}".to_vec());
        assert!(cache.get(&key(1, &["a"])).is_none());
        cache.insert(key(1, &["a"]), Arc::clone(&body));
        assert_eq!(cache.get(&key(1, &["a"])).as_deref(), Some(&*body));
        cache.insert(key(1, &["b"]), Arc::new(b"1".to_vec()));
        cache.insert(key(1, &["c"]), Arc::new(b"2".to_vec()));
        // "a" was oldest and the capacity is 2.
        assert!(cache.get(&key(1, &["a"])).is_none());
        assert!(cache.get(&key(1, &["c"])).is_some());
    }

    #[test]
    fn racing_insert_keeps_first_body() {
        let cache = ResponseCache::new(4);
        let first = cache.insert(key(1, &["a"]), Arc::new(b"first".to_vec()));
        let second = cache.insert(key(1, &["a"]), Arc::new(b"second".to_vec()));
        assert_eq!(first, second);
        assert_eq!(&*second, b"first");
    }
}
