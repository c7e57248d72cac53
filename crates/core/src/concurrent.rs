//! Concurrent deployment of the policy server.
//!
//! A deployed P3P server checks preferences for many visitors at once
//! (the JRC proxy of §3.3 served whole user populations). Two tools are
//! provided:
//!
//! * [`SharedServer`] — a lock-guarded server for the install path and
//!   occasional exclusive work;
//! * [`MatchPool`] — read-mostly scale-out: each worker matches against
//!   an immutable snapshot of the installed state, so visitor checks
//!   run fully in parallel (policies change rarely; snapshots are
//!   refreshed on install, mirroring how read replicas track a
//!   primary).

use crate::error::ServerError;
use crate::server::{EngineKind, MatchOutcome, PolicyServer, Target};
use p3p_appel::engine::Verdict;
use p3p_appel::model::Ruleset;
use p3p_minidb::exec;
use p3p_policy::model::Policy;
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

/// A thread-safe handle around one [`PolicyServer`].
#[derive(Clone)]
pub struct SharedServer {
    inner: Arc<Mutex<PolicyServer>>,
}

impl SharedServer {
    /// Wrap a server.
    pub fn new(server: PolicyServer) -> SharedServer {
        SharedServer {
            inner: Arc::new(Mutex::new(server)),
        }
    }

    /// Install a policy (exclusive).
    pub fn install_policy(&self, policy: &Policy) -> Result<i64, ServerError> {
        self.inner.lock().unwrap().install_policy(policy)
    }

    /// Match a preference (exclusive — use [`MatchPool`] to match many
    /// visitors in parallel without serializing on the lock).
    pub fn match_preference(
        &self,
        ruleset: &Ruleset,
        target: Target<'_>,
        engine: EngineKind,
    ) -> Result<MatchOutcome, ServerError> {
        self.inner
            .lock()
            .unwrap()
            .match_preference(ruleset, target, engine)
    }

    /// Run arbitrary exclusive work against the server.
    pub fn with<R>(&self, f: impl FnOnce(&mut PolicyServer) -> R) -> R {
        f(&mut self.inner.lock().unwrap())
    }

    /// The primary's current catalog epoch (bumped by every install,
    /// removal, and version upgrade).
    pub fn catalog_epoch(&self) -> u64 {
        self.inner.lock().unwrap().catalog_epoch()
    }

    /// Snapshot the current state for a [`MatchPool`].
    pub fn snapshot(&self) -> PolicyServer {
        self.inner.lock().unwrap().clone_state()
    }
}

/// Read-mostly matching: a pool of immutable snapshots, one per worker.
pub struct MatchPool {
    snapshot: RwLock<Arc<PolicyServer>>,
}

impl MatchPool {
    /// Build a pool from the current state of a shared server.
    pub fn new(shared: &SharedServer) -> MatchPool {
        MatchPool {
            snapshot: RwLock::new(Arc::new(shared.snapshot())),
        }
    }

    /// Refresh the snapshot after installs (cheap for readers; the old
    /// snapshot stays alive until its last match finishes). The
    /// superseded snapshot is dropped after the write lock is released,
    /// so matches never wait behind freeing what only it still held.
    pub fn refresh(&self, shared: &SharedServer) {
        let fresh = Arc::new(shared.snapshot());
        let mut pinned = self
            .snapshot
            .write()
            .expect("no match panics while holding the snapshot lock");
        let superseded = std::mem::replace(&mut *pinned, fresh);
        drop(pinned);
        drop(superseded);
    }

    /// The catalog epoch the pool's current snapshot is pinned to.
    /// Matches answered by this pool report exactly this epoch in
    /// [`MatchOutcome::epoch`] until the next [`MatchPool::refresh`] —
    /// the MVCC-style guarantee that concurrent installs on the primary
    /// never tear a reader's view.
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot.read().unwrap().catalog_epoch()
    }

    /// Match against the snapshot. Each call clones the snapshot handle
    /// (an `Arc` bump) and matches zero-copy: the SQL engines bind the
    /// policy id as a parameter and the XTable engine stages into a
    /// copy-on-write fork, so no per-call deep copy of server state is
    /// made and any number of threads can match simultaneously.
    pub fn match_preference(
        &self,
        ruleset: &Ruleset,
        target: Target<'_>,
        engine: EngineKind,
    ) -> Result<MatchOutcome, ServerError> {
        let snapshot = self.snapshot.read().unwrap().clone();
        snapshot.match_preference(ruleset, target, engine)
    }

    /// Corpus matching, sharded across threads where sharding divides
    /// the work. For the engines whose sweep is a per-policy loop
    /// (native APPEL and both XQuery engines) the installed-policy
    /// roster (already in name order) is split into `shards`
    /// contiguous chunks and each chunk runs
    /// [`PolicyServer::match_corpus_subset`] on its own thread against
    /// the shared snapshot. Chunks of a sorted roster concatenate back
    /// into name order, so the result is identical to a single-threaded
    /// [`PolicyServer::match_corpus`] call.
    ///
    /// The SQL engines ignore `shards` and sweep once on the calling
    /// thread: their sweep is O(rules) corpus queries whose decorrelated
    /// EXISTS builds hash corpus-wide tables whatever a shard's
    /// `IN (…)` list, so every shard would repeat nearly the whole
    /// sweep.
    ///
    /// Every shard runs under the snapshot's
    /// [`ExecOptions`](p3p_minidb::ExecOptions), which it inherited from
    /// the primary's database, and the shards' `ExecStats` are summed
    /// into the calling thread's, so `exec::stats_snapshot()` after the
    /// call covers the whole sweep however it was split.
    pub fn match_corpus(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        shards: usize,
    ) -> Result<Vec<(String, Verdict)>, ServerError> {
        self.match_corpus_pinned(ruleset, engine, shards)
            .map(|(_, verdicts)| verdicts)
    }

    /// [`MatchPool::match_corpus`] that also reports the catalog epoch
    /// the whole sweep was pinned to: every shard matches against the
    /// same snapshot `Arc`, so one epoch explains every verdict even
    /// while the primary installs and removes policies concurrently.
    pub fn match_corpus_pinned(
        &self,
        ruleset: &Ruleset,
        engine: EngineKind,
        shards: usize,
    ) -> Result<(u64, Vec<(String, Verdict)>), ServerError> {
        let snapshot = self.snapshot.read().unwrap().clone();
        let epoch = snapshot.catalog_epoch();
        let set_at_a_time = matches!(engine, EngineKind::Sql | EngineKind::SqlGeneric);
        let names = if set_at_a_time {
            Vec::new()
        } else {
            snapshot.policy_names()
        };
        let shards = shards.clamp(1, names.len().max(1));
        if shards <= 1 || set_at_a_time {
            return Ok((epoch, snapshot.match_corpus(ruleset, engine)?));
        }
        let chunk = names.len().div_ceil(shards);
        let _sweep = p3p_telemetry::span!("sharded_sweep", engine = engine.metric_label());
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .chunks(chunk)
                .enumerate()
                .map(|(i, part)| {
                    let snapshot = &snapshot;
                    let ruleset = &ruleset;
                    scope.spawn(move || {
                        let _shard =
                            p3p_telemetry::span!("corpus_shard", shard = i, policies = part.len());
                        let verdicts = snapshot.match_corpus_subset(ruleset, engine, Some(part));
                        (verdicts, exec::stats_snapshot())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus shard thread panicked"))
                .collect()
        });
        exec::reset_stats();
        let mut out = Vec::with_capacity(names.len());
        for (verdicts, stats) in results {
            exec::add_stats(&stats);
            out.extend(verdicts?);
        }
        Ok((epoch, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3p_appel::model::{jane_preference, Behavior};
    use p3p_minidb::ExecOptions;
    use p3p_policy::model::volga_policy;
    use p3p_workload::Sensitivity;

    #[test]
    fn shared_server_round_trip() {
        let shared = SharedServer::new(PolicyServer::new());
        shared.install_policy(&volga_policy()).unwrap();
        let v = shared
            .match_preference(&jane_preference(), Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert_eq!(v.verdict.behavior, Behavior::Request);
        let names = shared.with(|s| s.policy_names());
        assert_eq!(names, ["volga"]);
    }

    #[test]
    fn parallel_matching_agrees_with_serial() {
        let shared = SharedServer::new(PolicyServer::new());
        for p in p3p_workload::corpus(42).into_iter().take(8) {
            shared.install_policy(&p).unwrap();
        }
        let pool = MatchPool::new(&shared);
        let names = shared.with(|s| s.policy_names());
        let ruleset = Sensitivity::High.ruleset();

        // Serial reference verdicts.
        let serial: Vec<_> = names
            .iter()
            .map(|n| {
                shared
                    .match_preference(&ruleset, Target::Policy(n), EngineKind::Sql)
                    .unwrap()
                    .verdict
            })
            .collect();

        // Parallel: one thread per policy.
        let parallel: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|n| {
                    let pool = &pool;
                    let ruleset = &ruleset;
                    scope.spawn(move || {
                        pool.match_preference(ruleset, Target::Policy(n), EngineKind::Sql)
                            .unwrap()
                            .verdict
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sharded_corpus_matching_agrees_with_single_threaded() {
        let shared = SharedServer::new(PolicyServer::new());
        for p in p3p_workload::corpus(42) {
            shared.install_policy(&p).unwrap();
        }
        let pool = MatchPool::new(&shared);
        let ruleset = Sensitivity::High.ruleset();
        for engine in [
            EngineKind::Sql,
            EngineKind::Native,
            EngineKind::XQueryXTable,
            EngineKind::XQueryNative,
        ] {
            let single = pool.match_corpus(&ruleset, engine, 1).unwrap();
            assert!(!single.is_empty());
            // Shard counts beyond the corpus size clamp instead of
            // spawning empty shards.
            for shards in [2, 4, 7, 1000] {
                let sharded = pool.match_corpus(&ruleset, engine, shards).unwrap();
                assert_eq!(single, sharded, "{engine:?} with {shards} shards");
            }
        }
    }

    /// A pool over `corpus(42)` whose primary runs under `options`.
    fn pool_under(options: ExecOptions) -> (SharedServer, MatchPool) {
        let shared = SharedServer::new(PolicyServer::new());
        for p in p3p_workload::corpus(42) {
            shared.install_policy(&p).unwrap();
        }
        shared.with(|s| s.database_mut().set_options(options));
        let pool = MatchPool::new(&shared);
        (shared, pool)
    }

    #[test]
    fn sql_sweeps_run_once_under_the_snapshots_options() {
        // The row engine, with every correlated EXISTS decorrelated.
        let (shared, pool) = pool_under(ExecOptions {
            columnar: false,
            decorrelate_after: Some(0),
            ..ExecOptions::default()
        });
        let snapshot = shared.snapshot();
        let ruleset = Sensitivity::High.ruleset();
        // Warm both sides' caches so the measured sweeps do equal work.
        pool.match_corpus(&ruleset, EngineKind::Sql, 1).unwrap();
        snapshot.match_corpus(&ruleset, EngineKind::Sql).unwrap();
        snapshot.match_corpus(&ruleset, EngineKind::Sql).unwrap();
        let single = exec::stats_snapshot();
        pool.match_corpus(&ruleset, EngineKind::Sql, 4).unwrap();
        let pooled = exec::stats_snapshot();
        assert!(single.exists_builds > 0, "{single:?}");
        assert_eq!(pooled, single);
    }

    #[test]
    fn sharded_sweeps_run_under_the_pools_options_and_report_every_shard() {
        let ruleset = Sensitivity::High.ruleset();
        // (a) pins the correlated nested loop, so no shard may build a
        // set; (b) decorrelates every EXISTS, which the columnar kernels
        // would otherwise answer, on the row engine.
        let nested_loop = ExecOptions {
            decorrelate_after: Some(u32::MAX),
            ..ExecOptions::default()
        };
        let row_engine_sets = ExecOptions {
            decorrelate_after: Some(0),
            columnar: false,
            ..ExecOptions::default()
        };
        for (options, builds_sets) in [(nested_loop, false), (row_engine_sets, true)] {
            let (_shared, pool) = pool_under(options);
            // Rows read and output are left out: each extra shard stages
            // its first policy into a fresh fork, which reads one row
            // fewer than restaging the previous policy's.
            let work = |shards| {
                exec::reset_stats();
                pool.match_corpus(&ruleset, EngineKind::XQueryXTable, shards)
                    .unwrap();
                let s = exec::stats_snapshot();
                [
                    s.subqueries,
                    s.index_probes,
                    s.seq_scans,
                    s.exists_builds,
                    s.exists_probes,
                ]
            };
            let one = work(1);
            assert_eq!(work(3), one, "{options:?}");
            assert_eq!(one[3] > 0, builds_sets, "{options:?}: {one:?}");
        }
    }

    #[test]
    fn refresh_picks_up_new_installs() {
        let shared = SharedServer::new(PolicyServer::new());
        shared.install_policy(&volga_policy()).unwrap();
        let pool = MatchPool::new(&shared);
        let jane = jane_preference();
        assert!(pool
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .is_ok());

        let mut second = volga_policy();
        second.name = "second".to_string();
        shared.install_policy(&second).unwrap();
        // Stale snapshot does not know the new policy...
        assert!(pool
            .match_preference(&jane, Target::Policy("second"), EngineKind::Sql)
            .is_err());
        // ...until refreshed.
        pool.refresh(&shared);
        assert!(pool
            .match_preference(&jane, Target::Policy("second"), EngineKind::Sql)
            .is_ok());
    }

    #[test]
    fn snapshot_pins_one_epoch_across_concurrent_installs() {
        let shared = SharedServer::new(PolicyServer::new());
        shared.install_policy(&volga_policy()).unwrap();
        let pool = MatchPool::new(&shared);
        let pinned = pool.snapshot_epoch();
        assert_eq!(pinned, 1);
        let jane = jane_preference();

        // The primary churns underneath the pool...
        let mut second = volga_policy();
        second.name = "second".to_string();
        shared.install_policy(&second).unwrap();
        shared.with(|s| s.remove_policy("second")).unwrap();
        assert_eq!(shared.catalog_epoch(), 3);

        // ...but every match the pool answers still reports the pinned
        // epoch, and the sweep is explained by that single epoch too.
        let out = pool
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert_eq!(out.epoch, pinned);
        let (epoch, verdicts) = pool.match_corpus_pinned(&jane, EngineKind::Sql, 4).unwrap();
        assert_eq!(epoch, pinned);
        assert_eq!(verdicts.len(), 1);

        // Refresh advances the pin to the primary's epoch.
        pool.refresh(&shared);
        assert_eq!(pool.snapshot_epoch(), 3);
    }

    #[test]
    fn install_under_a_live_snapshot_copies_o_policy_state() {
        use p3p_minidb::columnar::BATCH;
        use p3p_workload::gen::{gen_policy, GenConfig};
        let shared = SharedServer::new(PolicyServer::new());
        let corpus = p3p_workload::corpus_n(42, 2000);
        let mut rng = p3p_workload::rng::SmallRng::seed_from_u64(42);
        let mut installed = 0;
        for n in [200, 2000] {
            for p in &corpus[installed..n] {
                shared.install_policy(p).unwrap();
            }
            installed = n;
            let pool = MatchPool::new(&shared);
            let fresh = gen_policy(&mut rng, &format!("fresh-{n}"), &GenConfig::default());
            shared.install_policy(&fresh).unwrap();
            let snapshot = Arc::clone(&pool.snapshot.read().unwrap());
            let (copied, catalog, columns, cells) = shared.with(|s| {
                let db = s.database();
                let tables: Vec<_> = db
                    .table_names()
                    .iter()
                    .map(|t| db.table(t).unwrap())
                    .collect();
                (
                    db.unshared_with(snapshot.database()),
                    s.catalog_entries_unshared_with(&snapshot),
                    tables.iter().map(|t| t.schema.columns.len()).sum::<usize>(),
                    tables
                        .iter()
                        .map(|t| t.len() * t.schema.columns.len())
                        .sum::<usize>(),
                )
            });
            // A tail chunk per column, plus the policy's own cells, which
            // fit in one more chunk per column: fixed by the schema.
            let bound = 2 * columns * BATCH;
            assert!(
                copied.cells <= bound,
                "{n} policies: {copied:?}, bound {bound}"
            );
            // One root-to-leaf trie path per index insert.
            assert!(copied.index_entries <= 20_000, "{n} policies: {copied:?}");
            assert!(
                (3..=200).contains(&catalog),
                "{n} policies: {catalog} catalog entries"
            );
            if n == 2000 {
                // Copying whole tables would break the bound here.
                assert!(cells > bound, "{cells} cells in all, bound {bound}");
            }
        }
    }

    #[test]
    fn pool_snapshots_share_warm_verdicts_with_the_primary() {
        let shared = SharedServer::new(PolicyServer::new());
        shared.install_policy(&volga_policy()).unwrap();
        shared.with(|s| s.set_verdict_cache_capacity(64));
        let pool = MatchPool::new(&shared);
        let jane = jane_preference();
        // The pool's first match memoizes; the primary's next identical
        // match hits the shared cache (no catalog mutation intervened,
        // so the caches are still attached).
        pool.match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        let warm = shared
            .match_preference(&jane, Target::Policy("volga"), EngineKind::Sql)
            .unwrap();
        assert!(warm.verdict_cached);
    }
}
