//! Immutable ecosystem snapshots with atomic hot-swap.
//!
//! A [`Snapshot`] freezes everything a query needs — the service specs,
//! the built [`Tdg`] with its backward engine prewarmed — under one
//! monotonically increasing generation number. Handlers grab an
//! `Arc<Snapshot>` once per request and use only that, so a concurrent
//! reload can never produce a torn response: every byte of a response is
//! derived from a single generation, which the response body names.

use actfort_core::backward::BackwardEngine;
use actfort_core::profile::AttackerProfile;
use actfort_core::tdg::Tdg;
use actfort_core::{Error, Patcher};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_ecosystem::synth::paper_population;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Which population a snapshot is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The 44 curated real-service profiles.
    Curated,
    /// The 201-service synthetic population calibrated to the paper's
    /// measurement study, generated from the given seed.
    Paper(u64),
}

impl Dataset {
    /// Parses `"curated"` or `"paper:<seed>"` (bare `"paper"` defaults
    /// to seed 2021, the experiment standard).
    ///
    /// # Errors
    ///
    /// [`Error::Query`] on any other spelling.
    pub fn parse(text: &str) -> Result<Self, Error> {
        match text {
            "curated" => Ok(Dataset::Curated),
            "paper" => Ok(Dataset::Paper(2021)),
            other => match other.strip_prefix("paper:").map(str::parse) {
                Some(Ok(seed)) => Ok(Dataset::Paper(seed)),
                _ => Err(Error::Query(format!(
                    "unknown dataset {text:?} (expected \"curated\" or \"paper:<seed>\")"
                ))),
            },
        }
    }

    /// Materializes the population.
    pub fn specs(&self) -> Vec<ServiceSpec> {
        match *self {
            Dataset::Curated => curated_services(),
            Dataset::Paper(seed) => paper_population(seed),
        }
    }

    /// Canonical spelling, inverse of [`Dataset::parse`].
    pub fn name(&self) -> String {
        match *self {
            Dataset::Curated => "curated".to_owned(),
            Dataset::Paper(seed) => format!("paper:{seed}"),
        }
    }
}

/// One immutable generation of the served ecosystem.
pub struct Snapshot {
    /// Monotonic generation number; bumped on every successful reload.
    pub generation: u64,
    /// The dataset this generation was built from.
    pub dataset: Dataset,
    /// The platform the graph was classified under.
    pub platform: Platform,
    /// The attacker profile the graph was classified against.
    pub profile: AttackerProfile,
    /// The service population.
    pub specs: Vec<ServiceSpec>,
    /// The dependency graph, built once per generation.
    pub tdg: Tdg,
    /// A handle on the graph's backward engine ([`Tdg::backward`]),
    /// built here so no request pays for it. Queries reach the same
    /// engine through `tdg`; the field stays for `perfbench`, which
    /// fills it itself.
    pub backward: BackwardEngine,
    /// A countermeasure patcher over the graph's prepared substrate:
    /// `/whatif` queries route through it so blast-radius planning and
    /// the compiled-patch cache (every subset) amortize across
    /// requests — no request ever recompiles the substrate.
    pub patcher: Patcher,
}

impl Snapshot {
    /// Builds generation `generation` from `dataset` under `platform`
    /// and `profile`.
    pub fn build(
        dataset: Dataset,
        platform: Platform,
        profile: AttackerProfile,
        generation: u64,
    ) -> Self {
        let specs = dataset.specs();
        let tdg = Tdg::build(&specs, platform, profile);
        let backward = tdg.backward().clone();
        let patcher = Patcher::new(Arc::clone(tdg.prepared()));
        Self { generation, dataset, platform, profile, specs, tdg, backward, patcher }
    }
}

/// The hot-swappable snapshot cell.
///
/// Readers pay one `RwLock` read acquisition and an `Arc` clone per
/// request; a reload builds the replacement *outside* the lock and
/// swaps the pointer while holding the write lock for only that swap.
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    next_generation: AtomicU64,
}

impl SnapshotStore {
    /// A store serving `initial` as generation 1.
    pub fn new(
        dataset: Dataset,
        platform: Platform,
        profile: AttackerProfile,
    ) -> Self {
        let snapshot = Snapshot::build(dataset, platform, profile, 1);
        Self {
            current: RwLock::new(Arc::new(snapshot)),
            next_generation: AtomicU64::new(2),
        }
    }

    /// The snapshot to serve this request from.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Builds a new generation from `dataset` (platform and profile are
    /// kept) and atomically publishes it. Returns the snapshot now being
    /// served. In-flight requests keep their old `Arc` and finish on
    /// the generation they started with.
    ///
    /// Generations are claimed *before* the (slow, lock-free) build, so
    /// two concurrent reloads can finish out of claim order. The publish
    /// is therefore conditional: a build only replaces the current
    /// snapshot if its generation is strictly newer, keeping the served
    /// generation monotonic — a slow build can never clobber a faster,
    /// newer one (the documented invariant; regression-pinned below).
    /// The loser returns the newer snapshot that beat it.
    pub fn reload(&self, dataset: Dataset) -> Arc<Snapshot> {
        let (platform, profile) = {
            let cur = self.current.read().expect("snapshot lock poisoned");
            (cur.platform, cur.profile)
        };
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(Snapshot::build(dataset, platform, profile, generation));
        let mut cur = self.current.write().expect("snapshot lock poisoned");
        if snapshot.generation > cur.generation {
            *cur = Arc::clone(&snapshot);
        }
        Arc::clone(&cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_parses_and_round_trips() {
        assert_eq!(Dataset::parse("curated").unwrap(), Dataset::Curated);
        assert_eq!(Dataset::parse("paper").unwrap(), Dataset::Paper(2021));
        assert_eq!(Dataset::parse("paper:7").unwrap(), Dataset::Paper(7));
        assert!(Dataset::parse("nope").unwrap_err().is_client_error());
        for d in [Dataset::Curated, Dataset::Paper(7)] {
            assert_eq!(Dataset::parse(&d.name()).unwrap(), d);
        }
    }

    #[test]
    fn reload_bumps_generation_and_keeps_old_arcs_alive() {
        let store = SnapshotStore::new(
            Dataset::Curated,
            Platform::Web,
            AttackerProfile::paper_default(),
        );
        let before = store.load();
        assert_eq!(before.generation, 1);
        let after = store.reload(Dataset::Curated);
        assert_eq!(after.generation, 2);
        assert_eq!(store.load().generation, 2);
        // The pre-reload handle still serves its own generation.
        assert_eq!(before.generation, 1);
        assert_eq!(before.specs.len(), after.specs.len());
    }

    #[test]
    fn concurrent_reloads_never_regress_the_generation() {
        // Two racing reloads: the first claims generation 2 but builds
        // the slow 201-service paper population; the second claims 3 and
        // publishes its fast curated build while 2 is still compiling.
        // The old unconditional publish let the late generation-2 build
        // clobber 3 (served generation went 3 → 2); the conditional
        // publish keeps 3 no matter which build finishes first.
        let store = Arc::new(SnapshotStore::new(
            Dataset::Curated,
            Platform::Web,
            AttackerProfile::paper_default(),
        ));
        let slow = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.reload(Dataset::Paper(2021)).generation)
        };
        // Give the slow reload time to claim its generation and enter
        // the build before the fast one claims the next number.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let fast = store.reload(Dataset::Curated);
        let slow_returned = slow.join().expect("slow reload panicked");
        // Whichever interleaving the scheduler picked, the served
        // generation is the maximum ever claimed: under the old
        // unconditional publish the late slow build clobbered it back to
        // its stale claim. Both reloads were handed a snapshot no older
        // than their own claim's winner.
        assert_eq!(store.load().generation, 3);
        assert!(fast.generation <= 3);
        assert!(slow_returned == 2 || slow_returned == 3, "got generation {slow_returned}");
        // A later reload keeps counting upward.
        assert_eq!(store.reload(Dataset::Curated).generation, 4);
    }
}
