//! The transformation cache: structural digest → optimised plan.
//!
//! The paper's rewrite fixpoint runs in time proportional to program
//! length × rule count × sweeps; under repeated traffic the same traced
//! byte-code sequences arrive over and over, so the runtime memoises the
//! *result* of transformation the way a JVM verifies byte-code once at
//! load time rather than per execution. Keys are
//! [`bh_ir::ProgramDigest`]s (canonical structure, register names
//! ignored) paired with the full optimisation options, so the same
//! sequence optimised under different levels/knobs occupies distinct
//! entries. Eviction is least-recently-used.

use bh_ir::{Opcode, Program, ProgramDigest, Verified};
use bh_observe::Tier;
use bh_opt::{OptOptions, OptReport};
use bh_vm::Scheduled;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// An optimised, verified, ready-to-execute program plus the report of
/// how it got that way. Immutable once built; shared via `Arc` between
/// the cache and every [`crate::EvalOutcome`] that used it. A tiered
/// runtime may *replace* a cache entry's plan with a stronger one
/// (promotion), but each `EvalPlan` value itself never changes — readers
/// holding an `Arc` clone keep a coherent plan through any swap.
#[derive(Debug)]
pub struct EvalPlan {
    /// The transformed program with its [`bh_ir::Verified`] witness and
    /// its fusion schedule: verification and fusion grouping ran exactly
    /// once, at plan-build time, so every later execution takes
    /// [`bh_vm::Vm::run_scheduled`]'s trusted path with zero re-checks
    /// and no per-run grouping. (`Scheduled` derefs to
    /// [`bh_ir::Program`], so read-only callers are unaffected.)
    pub program: Scheduled,
    /// What the optimiser did to produce it.
    pub report: OptReport,
    /// Fingerprint of the source program's structural digest, for logs.
    pub source_fingerprint: u64,
    /// Instructions the optimised plan executes per evaluation, counted
    /// by op-code (sorted, `BH_NONE` excluded). Captured once at plan
    /// build so per-digest opcode accounting costs the profiler nothing
    /// on the eval path: totals are `census × hits`.
    pub opcode_census: Vec<(Opcode, u64)>,
    /// Which optimisation tier built this plan. Non-tiered runtimes
    /// build [`Tier::Tier2`] plans directly; a tiered runtime builds
    /// [`Tier::Tier0`] plans on misses and promotes hot digests.
    pub tier: Tier,
    /// The source program the plan was transformed from, exactly as it
    /// entered the optimiser. Kept so the plan can be persisted as a
    /// self-contained container (source + plan) and re-audited with
    /// `bh_ir::check_equiv` on load — a plan without its source could
    /// never be re-proven against anything.
    pub source: Arc<Program>,
}

impl EvalPlan {
    /// Assemble a plan from a freshly verified program: computes the
    /// fusion schedule and the opcode census. Every plan — miss,
    /// promotion or warm load — is built here.
    pub(crate) fn new(
        program: Verified,
        report: OptReport,
        source: Arc<Program>,
        source_fingerprint: u64,
        tier: Tier,
    ) -> EvalPlan {
        let opcode_census = opcode_census(&program);
        EvalPlan {
            program: Scheduled::new(program),
            report,
            source_fingerprint,
            opcode_census,
            tier,
            source,
        }
    }
}

/// Count a program's instructions by op-code (sorted by op-code,
/// `BH_NONE` excluded — matching what [`bh_vm::ExecStats`] calls an
/// instruction).
fn opcode_census(program: &Program) -> Vec<(Opcode, u64)> {
    let mut counts: BTreeMap<Opcode, u64> = BTreeMap::new();
    for instr in program.instrs() {
        if instr.op != Opcode::NoOp {
            *counts.entry(instr.op).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub digest: ProgramDigest,
    // The full options value, not a hand-rolled fingerprint: a field
    // added to `OptOptions` participates in the key automatically.
    pub options: OptOptions,
}

struct Entry {
    plan: Arc<EvalPlan>,
    last_used: u64,
    /// ProfileTable hit count for this digest at the moment the entry's
    /// plan was inserted. The promotion policy compares *current* hits
    /// against this baseline, so hotness accumulated by an earlier
    /// incarnation of the digest (before an LRU eviction) can never
    /// instantly re-promote a freshly re-inserted cold entry — the
    /// stale-hotness fix pinned by the tiering regression suite.
    baseline_hits: u64,
    /// True once a promotion has been claimed for this entry. Set
    /// check-and-set under the cache lock, which makes promotion
    /// exactly-once per entry incarnation; a fresh insert (including
    /// re-insertion after eviction) starts unclaimed.
    promoting: bool,
}

/// LRU map from `(structural digest, options)` to optimised plans.
pub(crate) struct TransformCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
}

impl TransformCache {
    pub fn new(capacity: usize) -> TransformCache {
        TransformCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<EvalPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.plan)
        })
    }

    /// Insert `plan` under `key`, evicting the least-recently-used entry
    /// when full. If a racing thread inserted the same key first, its plan
    /// wins (and is returned) so all callers share one allocation.
    ///
    /// `baseline_hits` is the digest's ProfileTable hit count at insert
    /// time (0 for non-tiered runtimes) — the hotness baseline promotion
    /// decisions are measured against.
    pub fn insert(
        &mut self,
        key: CacheKey,
        plan: Arc<EvalPlan>,
        baseline_hits: u64,
    ) -> Arc<EvalPlan> {
        if self.capacity == 0 {
            return plan;
        }
        self.tick += 1;
        if let Some(existing) = self.map.get_mut(&key) {
            existing.last_used = self.tick;
            return Arc::clone(&existing.plan);
        }
        if self.map.len() >= self.capacity {
            // O(n) victim scan; capacities are modest (default 256) and
            // the scan only happens once the cache is full.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                last_used: self.tick,
                baseline_hits,
                promoting: false,
            },
        );
        plan
    }

    /// Claim the exactly-once right to promote `key`'s tier-0 plan.
    /// Succeeds only when the entry exists, still holds a tier-0 plan,
    /// is not already claimed, and has earned `promote_after` hits *since
    /// its own insertion* (`hits_now − baseline ≥ promote_after`). The
    /// baseline comparison is what keeps hotness accumulated before an
    /// LRU eviction from re-promoting a freshly re-inserted entry.
    pub fn try_claim_promotion(
        &mut self,
        key: &CacheKey,
        hits_now: u64,
        promote_after: u64,
    ) -> bool {
        let Some(entry) = self.map.get_mut(key) else {
            return false;
        };
        if entry.plan.tier != Tier::Tier0 || entry.promoting {
            return false;
        }
        if hits_now.saturating_sub(entry.baseline_hits) < promote_after {
            return false;
        }
        entry.promoting = true;
        true
    }

    /// Every live entry, for persistence snapshots. Order is
    /// unspecified; callers re-key on load anyway (the digest is
    /// recomputed from the decoded source, never trusted from disk).
    pub fn entries(&self) -> Vec<(CacheKey, Arc<EvalPlan>)> {
        self.map
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.plan)))
            .collect()
    }

    /// Atomically swap a promoted plan into `key`'s entry. Only lands on
    /// the same entry incarnation whose promotion was claimed
    /// (`promoting == true`); if the entry was evicted — or evicted and
    /// re-inserted, which resets the flag — the stale promotion result is
    /// dropped and `false` is returned. Readers are unaffected either
    /// way: they hold their own `Arc` to whichever plan they fetched.
    pub fn install_promoted(&mut self, key: &CacheKey, plan: Arc<EvalPlan>) -> bool {
        match self.map.get_mut(key) {
            Some(entry) if entry.promoting => {
                self.tick += 1;
                entry.plan = plan;
                entry.last_used = self.tick;
                entry.promoting = false;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;
    use bh_opt::Optimizer;

    fn plan_for(text: &str) -> (CacheKey, Arc<EvalPlan>) {
        let source = parse_program(text).unwrap();
        let digest = source.structural_digest();
        let mut program = source.clone();
        let report = Optimizer::default().run(&mut program);
        let fp = digest.fingerprint();
        (
            CacheKey {
                digest,
                options: OptOptions::default(),
            },
            Arc::new(EvalPlan::new(
                bh_ir::verify_owned(program).expect("test program verifies"),
                report,
                Arc::new(source),
                fp,
                Tier::Tier0,
            )),
        )
    }

    fn retiered(plan: &Arc<EvalPlan>, tier: Tier) -> Arc<EvalPlan> {
        Arc::new(EvalPlan {
            program: plan.program.clone(),
            report: plan.report.clone(),
            source_fingerprint: plan.source_fingerprint,
            opcode_census: plan.opcode_census.clone(),
            tier,
            source: Arc::clone(&plan.source),
        })
    }

    #[test]
    fn get_after_insert_returns_same_plan() {
        let mut cache = TransformCache::new(4);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        assert!(cache.get(&key).is_none());
        cache.insert(
            CacheKey {
                digest: key.digest.clone(),
                options: OptOptions::default(),
            },
            Arc::clone(&plan),
            0,
        );
        let got = cache.get(&key).unwrap();
        assert!(Arc::ptr_eq(&got, &plan));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut cache = TransformCache::new(2);
        let (k1, p1) = plan_for("BH_IDENTITY a [0:1:1] 1\nBH_SYNC a\n");
        let (k2, p2) = plan_for("BH_IDENTITY a [0:2:1] 1\nBH_SYNC a\n");
        let (k3, p3) = plan_for("BH_IDENTITY a [0:3:1] 1\nBH_SYNC a\n");
        cache.insert(
            CacheKey {
                digest: k1.digest.clone(),
                options: OptOptions::default(),
            },
            p1,
            0,
        );
        cache.insert(
            CacheKey {
                digest: k2.digest.clone(),
                options: OptOptions::default(),
            },
            p2,
            0,
        );
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        cache.insert(
            CacheKey {
                digest: k3.digest.clone(),
                options: OptOptions::default(),
            },
            p3,
            0,
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k2).is_none());
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = TransformCache::new(0);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        cache.insert(
            CacheKey {
                digest: key.digest.clone(),
                options: OptOptions::default(),
            },
            plan,
            0,
        );
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn racing_insert_keeps_first_plan() {
        let mut cache = TransformCache::new(4);
        let (key, plan_a) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        let (_, plan_b) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        cache.insert(
            CacheKey {
                digest: key.digest.clone(),
                options: OptOptions::default(),
            },
            Arc::clone(&plan_a),
            0,
        );
        let winner = cache.insert(
            CacheKey {
                digest: key.digest.clone(),
                options: OptOptions::default(),
            },
            plan_b,
            0,
        );
        assert!(Arc::ptr_eq(&winner, &plan_a));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn promotion_claim_is_exactly_once_and_gated_on_fresh_hits() {
        let mut cache = TransformCache::new(4);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        // Baseline 10: the digest was hot before this entry existed.
        cache.insert(key.clone(), Arc::clone(&plan), 10);
        // Stale hotness alone (10 recorded hits, 0 fresh) must not claim.
        assert!(!cache.try_claim_promotion(&key, 10, 3));
        // 12 − 10 = 2 fresh hits: still under the threshold.
        assert!(!cache.try_claim_promotion(&key, 12, 3));
        // 13 − 10 = 3: claimed — and only once.
        assert!(cache.try_claim_promotion(&key, 13, 3));
        assert!(!cache.try_claim_promotion(&key, 100, 3));
        // Install lands, flips the tier, and further claims fail (tier-2).
        let promoted = retiered(&plan, Tier::Tier2);
        assert!(cache.install_promoted(&key, Arc::clone(&promoted)));
        assert!(Arc::ptr_eq(&cache.get(&key).unwrap(), &promoted));
        assert!(!cache.try_claim_promotion(&key, 1000, 3));
    }

    #[test]
    fn stale_promotion_is_dropped_after_eviction_or_reinsert() {
        let mut cache = TransformCache::new(4);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        cache.insert(key.clone(), Arc::clone(&plan), 0);
        assert!(cache.try_claim_promotion(&key, 5, 3));
        // The entry is evicted mid-promotion…
        cache.clear();
        let promoted = retiered(&plan, Tier::Tier2);
        assert!(!cache.install_promoted(&key, Arc::clone(&promoted)));
        // …and re-inserted cold: the old claim must not leak onto the
        // fresh incarnation either.
        cache.insert(key.clone(), Arc::clone(&plan), 5);
        assert!(!cache.install_promoted(&key, promoted));
        assert_eq!(cache.get(&key).unwrap().tier, Tier::Tier0);
    }

    #[test]
    fn claims_on_missing_entries_fail() {
        let mut cache = TransformCache::new(4);
        let (key, plan) = plan_for("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        assert!(!cache.try_claim_promotion(&key, 100, 1));
        assert!(!cache.install_promoted(&key, plan));
    }
}
