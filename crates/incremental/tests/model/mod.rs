//! Seeded model harness of the maintenance service, shared by
//! `service_model.rs` and the per-concern slice tests.
//!
//!
//! Each seed draws one configuration and one random operation sequence,
//! weighted like the traffic `perfbench` drives: 1 % churn rounds, 1-row
//! inserts with reads between the send and the report, and a snapshot
//! every 16 rounds.
//!
//! * **Configuration:** a catalog view of TPC-H, MIMIC, PTC or PTE
//!   (`seed % 4`); 1, 2 or 4 shards (`seed / 4 % 3`); then, from the
//!   seed's generator, the [`DeletePolicy`], the [`ViewMode`], in-memory
//!   or durable, the ingest policy (queue or `CoalesceInPlace`) and the
//!   supervisor policy (manual or automatic respawn).
//! * **Operations:** churn, 1-row-insert, empty and skipped-table
//!   ingests; flush; vacuum; snapshot; reads; a fresh `recover`; burst
//!   ingests; and a crash, transient error, fatal error or delay armed at
//!   one of the five failpoint sites, healed by `respawn` or by the
//!   supervisor.
//!
//! The same logical rounds feed a plain mirror [`Database`] and four
//! reference lanes: a bare [`ShardedEngine`] configured like the
//! service's (the run that never crashed) and an unsharded
//! [`MaintenanceEngine`] in exact mode, cover-only `Materialized` and
//! cover-only `JoinIndex`. After every step the model checks:
//!
//! 1. the lanes against `InFine::discover` on the mirror: triple for
//!    triple in exact lanes, by name-aligned logical equivalence in
//!    cover-only and JoinIndex lanes;
//! 2. per-FD classification digests equal across lanes: service ==
//!    sharded, sharded == unsharded in the same view mode, and JoinIndex
//!    == Materialized;
//! 3. report, then read: after report N every read sees a round ≥ N, and
//!    every sampled snapshot's cover equals its round's cover;
//! 4. rounds never go backwards for one reader, across respawn and
//!    recovery;
//! 5. every ingested round is accounted for exactly once: applied,
//!    dropped and re-offered, or lost and re-fed from the recovered
//!    durable head;
//! 6. a crashed run equals the run that never crashed: the published
//!    cover and triples after every step; tombstone stats and row
//!    payloads at each `recover` and at the end; one probe round's report
//!    at the end;
//! 7. JoinIndex lanes hold zero resident view rows;
//! 8. after each vacuum: no dead rows, every vacuumed relation byte-equal
//!    to a rebuild of its live rows, `self_check` passes, and dictionary
//!    entries and physical rows stay within 3× a fresh engine's;
//! 9. an idle service reads lag 0.
//!
//! A failure prints the seed, the step and the op trace.
//! `INFINE_MODEL_SEEDS` picks one seed (`7`) or a range (`0..128`, end
//! exclusive; default `0..32`) and `INFINE_MODEL_STEPS` the steps per
//! seed (default 24). A run over the default seeds must reach every case
//! in [`REQUIRED`] and every DB × shard count.
//!
//! [`slice`] runs one pinned configuration with one op made frequent;
//! `chaos_soak`, `recovery_soak`, `reader_soak`, `vacuum_soak`,
//! `sharded_soak` and `view_mode_equivalence` are such slices, one test
//! per database or shard count, under the same invariants.

#![allow(dead_code)] // each test binary uses part of the harness

use infine_algebra::ViewSpec;
use infine_core::{FdKind, InFine, InFineReport, ProvenanceTriple};
use infine_datagen::{find, random_delta, Scale};
use infine_discovery::{same_fds, Fd, FdSet};
use infine_durability::failpoint::{
    DIR_FSYNC, ROUND_COMMIT, SNAPSHOT_WRITE, WAL_APPEND, WAL_APPEND_TORN,
};
use infine_incremental::{
    CoverReader, DeletePolicy, DurabilityOptions, FailPoints, FdStatus, IngestPolicy, InsertPolicy,
    MaintenanceEngine, MaintenanceError, MaintenanceMode, MaintenanceReport, MaintenanceService,
    PublishedCovers, ServicePolicies, ShardedEngine, SnapshotPolicy, SupervisorPolicy,
    TombstoneStats, VacuumPolicy, ViewMode,
};
use infine_obs::Registry;
use infine_relation::{relation_from_rows, AttrSet, Database, DeltaBatch, DeltaRelation, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CASES: [&str; 4] = [
    "tpch_q2",
    "mimic_q_patients_admissions",
    "ptc_connected_bond",
    "pte_atm_drug",
];
pub const SHARDS: [usize; 3] = [1, 2, 4];
pub const SITES: [&str; 5] = [
    WAL_APPEND,
    WAL_APPEND_TORN,
    SNAPSHOT_WRITE,
    ROUND_COMMIT,
    DIR_FSYNC,
];
pub const DEFAULT_SEEDS: u64 = 32;
pub const DEFAULT_STEPS: usize = 24;
pub const SCALE: f64 = 0.002;
pub const SNAPSHOT_EVERY: u64 = 16;
pub const TIMEOUT: Duration = Duration::from_secs(60);
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(20);

/// Cases a run over the default seeds must reach, comma-separated.
pub const REQUIRED: &str = "delete Compact, delete Tombstone, view Materialized, view JoinIndex, \
    durable, in-memory, crash at wal_append, crash at wal_append_torn, crash at snapshot_write, \
    crash at round_commit, crash at dir_fsync, fault crash, fault transient, fault fatal, fault delay";

pub type Coverage = BTreeMap<String, usize>;

/// `INFINE_MODEL_SEEDS`, and whether it includes every default seed.
pub fn seeds() -> (Vec<u64>, bool) {
    let Ok(v) = std::env::var("INFINE_MODEL_SEEDS") else {
        return ((0..DEFAULT_SEEDS).collect(), true);
    };
    let parse = |s: &str| -> u64 {
        s.trim()
            .parse()
            .expect("INFINE_MODEL_SEEDS: `7` or `0..64`")
    };
    let seeds: Vec<u64> = match v.split_once("..") {
        Some((a, b)) => (parse(a)..parse(b)).collect(),
        None => vec![parse(&v)],
    };
    let default = (0..DEFAULT_SEEDS).all(|s| seeds.contains(&s));
    (seeds, default)
}

pub fn steps() -> usize {
    std::env::var("INFINE_MODEL_STEPS").map_or(DEFAULT_STEPS, |v| {
        v.trim().parse().expect("INFINE_MODEL_STEPS: a count")
    })
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub case: &'static str,
    pub shards: usize,
    pub delete: DeletePolicy,
    pub view: ViewMode,
    pub durable: bool,
    pub coalesce: bool,
    pub supervised: bool,
}

impl Config {
    pub fn draw(seed: u64, rng: &mut StdRng) -> Config {
        let durable = rng.gen_bool(0.7);
        Config {
            case: CASES[(seed % 4) as usize],
            shards: SHARDS[(seed / 4 % 3) as usize],
            delete: [DeletePolicy::Compact, DeletePolicy::Tombstone][rng.gen_range(0..2)],
            view: [ViewMode::Materialized, ViewMode::JoinIndex][rng.gen_range(0..2)],
            durable,
            coalesce: rng.gen_bool(0.3),
            supervised: durable && rng.gen_bool(0.4),
        }
    }

    pub fn policies(&self) -> ServicePolicies {
        let mut p = ServicePolicies::default().vacuum(VacuumPolicy::at_fraction(0.5));
        if self.coalesce {
            p = p.ingest(IngestPolicy::coalesce_in_place());
        }
        if self.supervised {
            let sup = SupervisorPolicy::auto().respawn_backoff(Duration::from_millis(1));
            p = p.supervisor(sup.breaker(3, Duration::from_secs(30), BREAKER_COOLDOWN));
        }
        p
    }

    pub fn sharded(&self, db: &Database, spec: &ViewSpec) -> ShardedEngine {
        let (db, spec, insert) = (db.clone(), spec.clone(), InsertPolicy::default());
        let engine = ShardedEngine::with_options(
            InFine::default(),
            db,
            spec,
            self.shards,
            insert,
            self.delete,
            self.view,
        )
        .expect("sharded bootstrap");
        assert_eq!(engine.active_view_mode(), self.view, "view mode fell back");
        engine
    }

    pub fn unsharded(
        &self,
        db: &Database,
        spec: &ViewSpec,
        view: Option<ViewMode>,
    ) -> MaintenanceEngine {
        let mode = match view {
            Some(_) => MaintenanceMode::CoverOnly,
            None => MaintenanceMode::ExactProvenance,
        };
        let view = view.unwrap_or_default();
        let (db, spec) = (db.clone(), spec.clone());
        MaintenanceEngine::with_options(InFine::default(), db, spec, mode, self.delete, view)
            .expect("unsharded bootstrap")
    }
}

/// A fault armed at one site; it fires on the site's next hit.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    Crash(&'static str),
    Transient(&'static str),
    Fatal,
    Delay(&'static str, u64),
}

impl Fault {
    pub fn draw(rng: &mut StdRng) -> Fault {
        match rng.gen_range(0..10u32) {
            0..=3 => Fault::Crash(SITES[rng.gen_range(0..SITES.len())]),
            4..=5 => Fault::Transient([WAL_APPEND, SNAPSHOT_WRITE][rng.gen_range(0..2)]),
            6..=7 => Fault::Fatal,
            _ => Fault::Delay(SITES[rng.gen_range(0..SITES.len())], rng.gen_range(1..=5)),
        }
    }

    pub fn site(self) -> &'static str {
        match self {
            Fault::Crash(s) | Fault::Transient(s) | Fault::Delay(s, _) => s,
            Fault::Fatal => WAL_APPEND,
        }
    }

    /// Sites only a snapshot cut hits; a cut runs after its round's
    /// report.
    pub fn at_cut(self) -> bool {
        [SNAPSHOT_WRITE, DIR_FSYNC].contains(&self.site())
    }

    pub fn kind(self) -> &'static str {
        match self {
            Fault::Crash(_) => "crash",
            Fault::Transient(_) => "transient",
            Fault::Fatal => "fatal",
            Fault::Delay(..) => "delay",
        }
    }

    pub fn arm(self, fp: &mut FailPoints) {
        match self {
            // Two errors stay inside the default budget of four attempts.
            Fault::Transient(site) => fp.arm_err(site, 1, 2, true),
            Fault::Fatal => fp.arm_err(WAL_APPEND, 1, 1, false),
            Fault::Delay(site, ms) => fp.arm_delay(site, 1, 1, ms),
            Fault::Crash(site) => fp.arm(site, 1),
        }
    }
}

/// Overwrite every site with a harmless zero delay.
pub fn disarm(fp: &mut FailPoints) {
    for site in SITES {
        fp.arm_delay(site, 1, 1, 0);
    }
}

/// Round triples plus per-FD classification: two engines that merely
/// look equal diverge here.
pub type Digest = (
    Vec<ProvenanceTriple>,
    Vec<(Fd, FdKind, String, FdStatus)>,
    Vec<Fd>,
);

pub fn digest(r: &MaintenanceReport) -> Digest {
    let held = r
        .held
        .iter()
        .map(|(t, s)| (t.fd, t.kind, t.subquery.clone(), *s));
    let mut held: Vec<_> = held.collect();
    held.sort();
    let mut fresh = r.fresh.clone();
    fresh.sort();
    (r.triples.clone(), held, fresh)
}

/// `r.cover` re-keyed by attribute name onto the oracle's schema (the
/// view backend and the pipeline may order attributes differently),
/// then checked logically equivalent to the oracle's FDs.
pub fn equivalent_by_name(r: &MaintenanceReport, full: &InFineReport) -> bool {
    let map: Vec<usize> = (0..r.schema.len())
        .map(|i| full.schema.expect_id(r.schema.name(i)))
        .collect();
    let mut aligned = FdSet::new();
    for fd in r.cover.iter() {
        let lhs: AttrSet = fd.lhs.iter().map(|a| map[a]).collect();
        aligned.insert_unchecked(Fd::new(lhs, map[fd.rhs]));
    }
    aligned.equivalent(&full.fd_set())
}

/// Tombstone accounting of the stored base tables only.
pub fn stored_stats(db: &Database) -> TombstoneStats {
    let mut stats = TombstoneStats::default();
    for name in db.names() {
        stats.merge(TombstoneStats::of(db.expect(name)));
    }
    stats
}

/// Byte-equality with a rebuild from the relation's own live rows: the
/// compact form a vacuum must restore exactly.
pub fn assert_rebuild_equal(rel: &Relation, context: &str) {
    assert!(!rel.has_tombstones(), "{context}: tombstones remain");
    let rows: Vec<_> = (0..rel.nrows()).map(|r| rel.row(r)).collect();
    let refs: Vec<&[_]> = rows.iter().map(Vec::as_slice).collect();
    let names: Vec<&str> = (0..rel.ncols()).map(|c| rel.schema.name(c)).collect();
    let rebuilt = relation_from_rows(&rel.name, &names, &refs);
    for c in 0..rel.ncols() {
        let (a, b) = (rel.column(c), rebuilt.column(c));
        assert_eq!(a.codes, b.codes, "{context}: codes of column {c}");
        assert_eq!(a.dict.as_slice(), b.dict.as_slice(), "{context}: dict {c}");
        assert_eq!(a.null_code, b.null_code, "{context}: nulls {c}");
    }
}

pub fn dirty_tables(db: &Database) -> Vec<String> {
    let names = db.names().filter(|n| db.expect(n).has_tombstones());
    names.map(str::to_string).collect()
}

/// The reference side: a mirror database, the oracle on it, and four
/// engines that consume every logical round once, in order.
pub struct Lanes {
    cfg: Config,
    spec: ViewSpec,
    mirror: Database,
    full: InFineReport,
    /// Configured like the service's engine: the run that never crashed.
    sharded: ShardedEngine,
    exact: MaintenanceEngine,
    mat: MaintenanceEngine,
    virt: MaintenanceEngine,
}

impl Lanes {
    pub fn new(cfg: Config, db: &Database, spec: &ViewSpec) -> Lanes {
        let lanes = Lanes {
            cfg,
            spec: spec.clone(),
            mirror: db.clone(),
            full: InFine::default().discover(db, spec).expect("oracle"),
            sharded: cfg.sharded(db, spec),
            exact: cfg.unsharded(db, spec, None),
            mat: cfg.unsharded(db, spec, Some(ViewMode::Materialized)),
            virt: cfg.unsharded(db, spec, Some(ViewMode::JoinIndex)),
        };
        assert_eq!(lanes.virt.active_view_mode(), Some(ViewMode::JoinIndex));
        assert_eq!(lanes.mat.active_view_mode(), Some(ViewMode::Materialized));
        for eng in [&lanes.exact, &lanes.mat, &lanes.virt] {
            assert_eq!(eng.report().triples, lanes.full.triples, "bootstrap");
        }
        let sharded = &lanes.sharded.report().triples;
        assert_eq!(sharded, &lanes.full.triples, "sharded bootstrap ≠ oracle");
        lanes
    }

    /// Apply one logical round everywhere and check the lanes against
    /// the oracle and each other. Returns the sharded lane's digest.
    pub fn apply(&mut self, round: &[DeltaRelation]) -> Digest {
        for d in round {
            let rel = self.mirror.expect(&d.target);
            let (rel, _) = rel.apply_delta(&d.batch, d.target.clone());
            self.mirror.insert(rel);
        }
        let s = self.sharded.apply(round).expect("sharded lane round");
        let e = self.exact.apply(round).expect("exact lane round");
        let m = self.mat.apply(round).expect("materialized lane round");
        let v = self.virt.apply(round).expect("join-index lane round");
        self.full = InFine::default()
            .discover(&self.mirror, &self.spec)
            .expect("oracle");
        assert_eq!(e.triples, self.full.triples, "exact lane ≠ oracle");
        assert_eq!(digest(&m), digest(&v), "JoinIndex ≠ Materialized");
        assert!(same_fds(&m.cover, &v.cover), "JoinIndex ≠ Materialized");
        assert!(equivalent_by_name(&v, &self.full), "JoinIndex ≠ oracle");
        assert_eq!(self.virt.resident_view_rows(), 0, "resident view rows");
        match self.cfg.view {
            ViewMode::Materialized => {
                assert_eq!(digest(&s), digest(&e), "sharded ≠ unsharded");
                assert_eq!(s.triples, self.full.triples, "sharded ≠ oracle");
            }
            ViewMode::JoinIndex => {
                assert_eq!(digest(&s), digest(&v), "sharded ≠ unsharded JoinIndex");
                assert!(equivalent_by_name(&s, &self.full), "sharded ≠ oracle");
            }
        }
        digest(&s)
    }

    /// Vacuum every lane and check what a vacuum must restore.
    pub fn vacuum(&mut self) {
        if self.cfg.delete == DeletePolicy::Tombstone {
            let (m, v) = (
                stored_stats(self.mat.database()),
                stored_stats(self.virt.database()),
            );
            assert_eq!(m, v, "stored-table tombstones differ across view modes");
        }
        let fresh = self
            .cfg
            .unsharded(&self.mirror, &self.spec, Some(ViewMode::Materialized));
        let (now, fresh) = (self.mat.tombstone_stats(), fresh.tombstone_stats());
        let bounded = now.physical_rows <= 3 * fresh.physical_rows
            && now.dict_entries <= 3 * fresh.dict_entries;
        assert!(bounded, "footprint {now:?} over 3x {fresh:?}");

        let shards = self.sharded.shards();
        let dirty: Vec<_> = (0..shards)
            .map(|s| dirty_tables(self.sharded.shard_database(s)))
            .collect();
        let unsharded = [&self.exact, &self.mat, &self.virt].map(|e| dirty_tables(e.database()));
        let (triples, cover) = (self.sharded.report().triples.clone(), self.virt.fd_set());
        self.sharded.vacuum();
        for eng in [&mut self.exact, &mut self.mat, &mut self.virt] {
            eng.vacuum();
        }

        let dead = self.sharded.tombstone_stats().dead_rows();
        assert_eq!(dead, 0, "dead rows left");
        for (s, tables) in dirty.into_iter().enumerate() {
            for t in tables {
                let rel = self.sharded.shard_database(s).expect(&t);
                assert_rebuild_equal(rel, &format!("shard {s} {t}"));
            }
        }
        for (eng, tables) in [&self.exact, &self.mat, &self.virt]
            .into_iter()
            .zip(unsharded)
        {
            assert_eq!(eng.tombstone_stats().dead_rows(), 0, "dead rows left");
            for t in tables {
                assert_rebuild_equal(eng.database().expect(&t), &t);
            }
            eng.self_check();
        }
        self.sharded.self_check();
        assert_eq!(self.sharded.report().triples, triples, "triples moved");
        assert!(same_fds(&self.virt.fd_set(), &cover), "cover moved");
        assert!(same_fds(&self.mat.fd_set(), &cover), "covers diverged");
    }
}

pub enum Req {
    Ingest(Vec<DeltaRelation>),
    Flush,
    Vacuum,
    Snapshot,
}

pub struct Model<'t> {
    cfg: Config,
    pub rng: StdRng,
    tables: Vec<String>,
    lanes: Lanes,
    service: Option<MaintenanceService>,
    dir: Option<PathBuf>,
    /// Shared with every worker incarnation through the options.
    pub fp: FailPoints,
    pub registry: Registry,
    reader: CoverReader,
    last_read: u64,
    /// Rounds the service has committed, by the model's count.
    round: u64,
    /// The view cover as of each committed round.
    covers: HashMap<u64, FdSet>,
    /// Reads taken while a round was in flight, checked once it commits.
    samples: Vec<(u64, FdSet)>,
    step: usize,
    deaths: usize,
    burst: bool,
    coverage: Coverage,
    trace: &'t mut Vec<String>,
}

impl<'t> Model<'t> {
    pub fn new(
        seed: u64,
        cfg: Config,
        rng: StdRng,
        registry: Registry,
        trace: &'t mut Vec<String>,
    ) -> Self {
        let case = find(cfg.case).expect("catalog case");
        let db = case.dataset.generate(Scale::of(SCALE));
        let spec = case.spec.clone();
        let tables = spec.base_tables().into_iter().map(str::to_string).collect();
        let lanes = Lanes::new(cfg, &db, &spec);
        // The arm table must exist before the options clone it, so arms
        // made here reach every worker incarnation.
        let mut fp = FailPoints::none();
        fp.arm_delay(ROUND_COMMIT, 1, 1, 0);
        let dir = cfg.durable.then(|| {
            let dir = model_dir(seed);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            dir
        });
        let engine = cfg.sharded(&db, &spec);
        let service = match &dir {
            Some(d) => {
                let options = options(d, &fp);
                MaintenanceService::spawn_durable_with_policies(engine, options, cfg.policies())
                    .expect("durable spawn")
            }
            None => MaintenanceService::spawn_with_policies(engine, cfg.policies()),
        };
        let durability = if cfg.durable { "durable" } else { "in-memory" };
        let coverage = [
            format!("{} x {} shards", cfg.case, cfg.shards),
            format!("delete {:?}", cfg.delete),
            format!("view {:?}", cfg.view),
            durability.to_string(),
        ];
        trace.push(format!("config {cfg:?}"));
        Model {
            cfg,
            rng,
            tables,
            covers: HashMap::from([(0, lanes.sharded.fd_set())]),
            lanes,
            reader: service.reader(),
            service: Some(service),
            dir,
            fp,
            registry,
            last_read: 0,
            round: 0,
            samples: Vec::new(),
            step: 0,
            deaths: 0,
            burst: false,
            coverage: coverage.into_iter().map(|k| (k, 1)).collect(),
            trace,
        }
    }

    pub fn svc(&self) -> &MaintenanceService {
        self.service.as_ref().expect("service is up")
    }

    pub fn note(&mut self, line: String) {
        self.trace.push(format!("step {}: {line}", self.step));
    }

    pub fn count(&mut self, key: &str) {
        *self.coverage.entry(key.to_string()).or_default() += 1;
    }

    /// `f` as one traced step, then the idle checks.
    pub fn op(&mut self, f: impl FnOnce(&mut Self)) {
        self.step += 1;
        f(self);
        self.check_idle();
    }

    /// One random operation, then the idle checks.
    pub fn step(&mut self) {
        self.step += 1;
        match self.rng.gen_range(0..100u32) {
            0..=29 => self.churn(),
            30..=54 => self.insert_one(),
            55..=59 => self.empty(),
            60..=63 => self.request("flush", Req::Flush),
            64..=69 => self.vacuum(),
            70..=73 => self.request("snapshot", Req::Snapshot),
            74..=79 => self.reads(),
            80..=82 if self.cfg.durable => self.recover(),
            80..=82 => self.reads(),
            83..=87 => {
                let k = self.rng.gen_range(2..=4);
                self.burst(k);
            }
            _ if self.cfg.durable => {
                let fault = Fault::draw(&mut self.rng);
                self.fault(fault);
            }
            _ => self.churn(),
        }
        self.check_idle();
    }

    /// A 1 % churn round: per table, usually up to 2 % deletes and
    /// inserts, sometimes an empty batch, sometimes no batch.
    pub fn churn_round(&mut self) -> Vec<DeltaRelation> {
        let mut round = Vec::new();
        for t in &self.tables {
            let batch = match self.rng.gen_range(0..10u32) {
                0 => continue,
                1 => DeltaBatch::new(),
                _ => {
                    let rel = self.lanes.mirror.expect(t);
                    let max = (rel.nrows() / 50).max(2);
                    let (d, i) = (self.rng.gen_range(0..=max), self.rng.gen_range(0..=max));
                    random_delta(&mut self.rng, rel, d, i)
                }
            };
            round.push(DeltaRelation::new(t.clone(), batch));
        }
        self.non_empty(round)
    }

    /// An ingest with no batch at all starts no round.
    pub fn non_empty(&self, mut round: Vec<DeltaRelation>) -> Vec<DeltaRelation> {
        if round.is_empty() {
            round.push(DeltaRelation::new(
                self.tables[0].clone(),
                DeltaBatch::new(),
            ));
        }
        round
    }

    pub fn churn(&mut self) {
        let round = self.churn_round();
        self.ingest("churn", round, 0);
    }

    pub fn insert_one(&mut self) {
        let t = self.tables[self.rng.gen_range(0..self.tables.len())].clone();
        let batch = random_delta(&mut self.rng, self.lanes.mirror.expect(&t), 0, 1);
        self.ingest("insert-one", vec![DeltaRelation::new(t, batch)], 3);
    }

    pub fn empty(&mut self) {
        let tables = self.tables.clone();
        let empty = tables.into_iter().filter(|_| self.rng.gen_bool(0.5));
        let round = empty
            .map(|t| DeltaRelation::new(t, DeltaBatch::new()))
            .collect();
        let round = self.non_empty(round);
        self.ingest("empty", round, 0);
    }

    /// Lockstep ingest with `reads` reads between the send and the
    /// report.
    pub fn ingest(&mut self, what: &str, round: Vec<DeltaRelation>, reads: usize) {
        self.note(format!("{what} {}", summary(&round)));
        let want = self.lanes.apply(&round);
        if let Some(report) = self.round_trip(&Req::Ingest(round), reads) {
            assert_eq!(digest(&report), want, "service report ≠ never-crashed lane");
        }
    }

    pub fn request(&mut self, what: &str, req: Req) {
        self.note(what.to_string());
        self.round_trip(&req, 0);
    }

    pub fn vacuum(&mut self) {
        self.note("vacuum".to_string());
        self.lanes.vacuum();
        if let Some(report) = self.round_trip(&Req::Vacuum, 0) {
            assert!(report.vacuum.is_some(), "no vacuum stats");
            let dead = self.read().tombstones.dead_rows();
            assert_eq!(dead, 0, "published state after a vacuum holds dead rows");
        }
    }

    pub fn reads(&mut self) {
        self.note("reads".to_string());
        self.sample(3);
        self.check_samples();
    }

    pub fn sample(&mut self, reads: usize) {
        for _ in 0..reads {
            let snap = self.read();
            self.samples.push((snap.round, snap.cover.clone()));
        }
    }

    /// Send `req` and wait for its round, healing through injected
    /// deaths. `Some(report)` when the round reported; `None` when it
    /// became durable before the worker died (it commits unreported).
    pub fn round_trip(&mut self, req: &Req, reads: usize) -> Option<MaintenanceReport> {
        loop {
            let sent = match req {
                Req::Ingest(round) => self.svc().ingest(round.clone()),
                Req::Flush => self.svc().flush(),
                Req::Vacuum => self.svc().vacuum(),
                Req::Snapshot => self.svc().snapshot(),
            };
            match sent {
                Ok(()) => {}
                Err(MaintenanceError::WorkerDied) => {
                    self.heal(false);
                    continue;
                }
                Err(e) => panic!("request refused: {e}"),
            }
            if let Some(info) = self.svc().take_recovery_info() {
                // A cut left running by the last op crashed, and the
                // supervisor respawned the worker for this request.
                self.deaths += 1;
                disarm(&mut self.fp);
                assert!(!info.clean_shutdown, "a crash looks like a clean shutdown");
                assert_eq!(info.durable_rounds, self.round, "durable head");
                self.note("  healed".to_string());
            }
            self.sample(reads);
            match self.svc().recv_report_timeout(TIMEOUT) {
                Some(Ok(report)) => {
                    self.commit();
                    self.read_after(self.round);
                    let cover = &self.covers[&self.round];
                    assert!(same_fds(&report.cover, cover), "report cover ≠ lanes");
                    self.check_samples();
                    return Some(report);
                }
                Some(Err(MaintenanceError::Durability(_))) => {
                    // Dropped, not committed: the service is idle again.
                    self.check_lag();
                    self.count("dropped and re-offered");
                }
                Some(Err(MaintenanceError::WorkerDied)) | None => {
                    if self.heal(true) {
                        self.check_samples();
                        return None;
                    }
                    self.count("lost and re-fed");
                }
                Some(Err(e)) => panic!("round failed: {e}"),
            }
        }
    }

    pub fn commit(&mut self) {
        self.round += 1;
        self.covers.insert(self.round, self.lanes.sharded.fd_set());
    }

    /// Report, then read: a read after round `round` reported (or
    /// recovered) sees at least that round.
    pub fn read_after(&mut self, round: u64) {
        let seen = self.read().round;
        assert!(seen >= round, "reported {round}, read {seen}");
    }

    /// Rebuild a dead worker from disk: explicitly, or through the
    /// supervisor with a content-free flush (a crashed round may already
    /// be durable, so re-sending it blindly could apply it twice).
    /// `pending`: a round was in flight; returns whether it was durable.
    pub fn heal(&mut self, pending: bool) -> bool {
        while let Some(r) = self.svc().try_recv_report() {
            assert!(r.is_err(), "Ok report after the worker died");
        }
        disarm(&mut self.fp);
        self.deaths += 1;
        let svc = self.service.as_mut().expect("service is up");
        let info = if self.cfg.supervised {
            loop {
                match svc.flush() {
                    Ok(()) => break,
                    Err(MaintenanceError::BreakerOpen) => {
                        *self.coverage.entry("breaker open".into()).or_default() += 1;
                        std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(5));
                    }
                    Err(e) => panic!("heal flush refused: {e}"),
                }
            }
            let info = svc.take_recovery_info().expect("the heal flush respawned");
            let report = svc.recv_report_timeout(TIMEOUT).expect("heal flush report");
            report.unwrap_or_else(|e| panic!("heal flush round failed: {e}"));
            info
        } else {
            svc.respawn()
                .unwrap_or_else(|e| panic!("respawn failed: {e}"))
        };
        assert!(!info.clean_shutdown, "a crash looks like a clean shutdown");
        let durable = pending && info.durable_rounds == self.round + 1;
        if durable {
            self.commit();
        }
        assert_eq!(info.durable_rounds, self.round, "durable head");
        if self.cfg.supervised {
            // The heal flush is a round of its own, on the durable state.
            let cover = self.covers[&self.round].clone();
            self.round += 1;
            self.covers.insert(self.round, cover);
        }
        self.read_after(self.round);
        self.note("  healed".to_string());
        durable
    }

    /// Arm `fault`, then run the op that hits its site next: a snapshot
    /// for cut-only sites, a random round-producing op otherwise. Faults
    /// never outlive their op.
    pub fn fault(&mut self, fault: Fault) {
        self.note(format!("arm {} at {}", fault.kind(), fault.site()));
        fault.arm(&mut self.fp);
        let deaths = self.deaths;
        match self.rng.gen_range(0..5u32) {
            _ if fault.at_cut() => self.request("snapshot", Req::Snapshot),
            0 => self.churn(),
            1 => self.insert_one(),
            2 => self.request("flush", Req::Flush),
            3 => self.vacuum(),
            _ => self.request("snapshot", Req::Snapshot),
        }
        if let Fault::Crash(site) = fault {
            if fault.at_cut() && self.deaths == deaths {
                // The cut runs after the snapshot round reported. (A cut
                // left running by the last op may have crashed first.)
                let t0 = Instant::now();
                while self.svc().stats().worker_alive {
                    assert!(t0.elapsed() < TIMEOUT, "crash at {site} never fired");
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.heal(false);
            }
            assert!(self.deaths > deaths, "crash at {site} never fired");
            self.count(&format!("crash at {site}"));
        }
        self.count(&format!("fault {}", fault.kind()));
    }

    /// Send `k` rounds without waiting, then collect however many
    /// rounds the worker folded them into. Returns the batches sent.
    pub fn burst(&mut self, k: usize) -> usize {
        self.note(format!("burst of {k}"));
        self.burst = true;
        let mut sent = Vec::new();
        for _ in 0..k {
            let round = self.churn_round();
            self.note(format!("  {}", summary(&round)));
            self.lanes.apply(&round);
            sent.push(round);
        }
        let batches = sent.iter().map(Vec::len).sum();
        for round in sent {
            self.svc().ingest(round).expect("burst ingest");
        }
        let (t0, mut rounds) = (Instant::now(), 0);
        loop {
            if let Some(r) = self.svc().try_recv_report() {
                let report = r.unwrap_or_else(|e| panic!("burst round failed: {e}"));
                (self.round, rounds) = (self.round + 1, rounds + 1);
                self.covers.insert(self.round, report.cover);
                self.read_after(self.round);
                continue;
            }
            // The report precedes the in-flight settle, so once the
            // queue is idle every report is already in the channel.
            let stats = self.svc().stats();
            if rounds > 0 && stats.queue_depth == 0 && stats.in_flight == 0 {
                assert!(self.svc().try_recv_report().is_none(), "late report");
                break;
            }
            assert!(t0.elapsed() < TIMEOUT, "burst never drained: {stats:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rounds <= k, "{k} ingests made {rounds} rounds");
        let cover = &self.covers[&self.round];
        assert!(same_fds(cover, &self.lanes.sharded.fd_set()), "burst");
        self.count("burst");
        batches
    }

    /// Shut down cleanly, compare the engine at rest, and recover a new
    /// service from the directory.
    pub fn recover(&mut self) {
        self.note("recover".to_string());
        let service = self.service.take().expect("service is up");
        let mut engine = service.shutdown().expect("clean shutdown");
        self.at_rest(&mut engine);
        let options = options(self.dir.as_ref().expect("durable"), &self.fp);
        let spec = self.lanes.spec.clone();
        let (service, info) = MaintenanceService::recover_with_policies(
            options,
            InFine::default(),
            spec,
            self.cfg.policies(),
        )
        .unwrap_or_else(|e| panic!("recover failed: {e}"));
        assert!(info.clean_shutdown, "a clean shutdown recovered as a crash");
        assert_eq!(info.durable_rounds, self.round, "recovered rounds");
        self.reader = service.reader();
        self.service = Some(service);
        let snap = self.read();
        assert_eq!(snap.round, self.round, "recovered reader round");
        let cover = &self.covers[&self.round];
        assert!(same_fds(&snap.cover, cover), "recovered cover diverged");
        self.count("recover");
    }

    /// A read through the model's long-lived reader: rounds are monotone
    /// for one reader, across respawn and recovery.
    pub fn read(&mut self) -> Arc<PublishedCovers> {
        let snap = self.reader.current();
        let (last, now) = (self.last_read, snap.round);
        assert!(now >= last, "reader went back from round {last} to {now}");
        self.last_read = now;
        snap
    }

    pub fn check_samples(&mut self) {
        for (round, cover) in self.samples.drain(..) {
            let want = self
                .covers
                .get(&round)
                .expect("a read saw an uncommitted round");
            assert!(same_fds(&cover, want), "read at round {round}");
        }
    }

    /// An idle service reads lag 0, on the reader and on the gauge.
    pub fn check_lag(&mut self) -> Arc<PublishedCovers> {
        let snap = self.read();
        assert_eq!(self.reader.head_round(), snap.round, "read lag");
        let lag = self.registry.snapshot().get("infine_read_round_lag");
        assert_eq!(lag, Some(0.0), "idle lag gauge");
        snap
    }

    /// Nothing in flight: the reader is at the last committed round with
    /// no lag, and the published state equals the never-crashed lane.
    pub fn check_idle(&mut self) {
        assert!(self.svc().try_recv_report().is_none(), "stray report");
        let snap = self.check_lag();
        assert_eq!(snap.round, self.round, "idle reader round");
        let lane = &self.lanes.sharded;
        assert!(same_fds(&snap.cover, &lane.fd_set()), "published cover");
        assert_eq!(snap.triples, lane.report().triples, "published triples");
    }

    /// `engine` (the service's, maybe recovered) keeps its view mode,
    /// passes `self_check`, and equals the never-crashed lane at rest:
    /// triples, cover, tombstone accounting, row payloads.
    pub fn at_rest(&mut self, engine: &mut ShardedEngine) {
        assert_eq!(engine.active_view_mode(), self.cfg.view, "view mode");
        engine.vacuum();
        engine.self_check();
        self.lanes.sharded.vacuum();
        let lane = &self.lanes.sharded;
        assert_eq!(engine.report().triples, lane.report().triples, "triples");
        assert!(same_fds(&engine.fd_set(), &lane.fd_set()), "covers");
        let (a, b) = (engine.tombstone_stats(), lane.tombstone_stats());
        assert_eq!(a.physical_rows, b.physical_rows, "physical rows");
        assert_eq!(a.live_rows, b.live_rows, "live rows");
        if !self.burst {
            // Folding an insert into its delete keeps the value out of
            // the dictionary, so only unfolded streams compare it.
            assert_eq!(a.dict_entries, b.dict_entries, "dictionary entries");
        }
        for name in self.lanes.mirror.names() {
            let (rel, want) = (
                engine.database().expect(name),
                self.lanes.mirror.expect(name),
            );
            assert_eq!(rel.nrows(), want.nrows(), "{name}: row count");
            for r in 0..rel.nrows() {
                assert_eq!(rel.row(r), want.row(r), "{name}: row {r}");
            }
        }
    }

    /// Shut down, compare at rest, and run one probe round on both
    /// sides.
    pub fn finish(mut self) -> Coverage {
        disarm(&mut self.fp);
        let probe = self.churn_round();
        self.note(format!("probe {}", summary(&probe)));
        let service = self.service.take().expect("service is up");
        let mut engine = service.shutdown().expect("clean shutdown");
        self.at_rest(&mut engine);
        let want = digest(&self.lanes.sharded.apply(&probe).expect("lane probe"));
        let got = digest(&engine.apply(&probe).expect("service engine probe"));
        assert_eq!(got, want, "probe round diverged");
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.coverage
    }
}

pub fn options(dir: &Path, fp: &FailPoints) -> DurabilityOptions {
    let policy = SnapshotPolicy::every_rounds(SNAPSHOT_EVERY);
    DurabilityOptions::new(dir)
        .snapshot_policy(policy)
        .failpoints(fp.clone())
}

pub fn model_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("infine-model-{}-{seed}", std::process::id()))
}

/// `table:-deletes+inserts` per batch, for the trace.
pub fn summary(round: &[DeltaRelation]) -> String {
    let batch = |d: &DeltaRelation| (d.batch.num_deletes(), d.batch.num_inserts());
    let parts: Vec<_> = round
        .iter()
        .map(|d| (d.target.as_str(), batch(d)))
        .collect();
    parts
        .iter()
        .map(|(t, (d, i))| format!("{t}:-{d}+{i}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    let string = payload.downcast_ref::<String>().map(String::as_str);
    string
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// Run one seed: `cfg` (or one drawn from the seed) and `body` on the
/// model, then the at-rest checks. `Err` carries the seed, the failing
/// step and the op trace.
pub fn run(
    seed: u64,
    cfg: Option<Config>,
    body: impl FnOnce(&mut Model),
) -> Result<Coverage, String> {
    // Injected crashes panic worker threads on purpose; keep them quiet.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).contains("(injected crash)") {
                default(info);
            }
        }));
    });
    let mut trace = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let registry = Registry::scoped();
        let _scope = registry.enter();
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = cfg.unwrap_or_else(|| Config::draw(seed, &mut rng));
        let mut model = Model::new(seed, cfg, rng, registry.clone(), &mut trace);
        body(&mut model);
        model.finish()
    }));
    let payload = match outcome {
        Ok(coverage) => {
            // The trace holds only seed-determined ops, so its hash is
            // the same on every run and thread count.
            let mut hash = std::collections::hash_map::DefaultHasher::new();
            trace.hash(&mut hash);
            eprintln!("seed {seed}: {}, trace {:016x}", trace[0], hash.finish());
            return Ok(coverage);
        }
        Err(payload) => payload,
    };
    let _ = std::fs::remove_dir_all(model_dir(seed));
    let lines: Vec<String> = trace.iter().map(|l| format!("    {l}")).collect();
    let at = trace.last().map_or("bootstrap", String::as_str);
    let msg = panic_message(payload.as_ref());
    let replay = format!("replay: INFINE_MODEL_SEEDS={seed}");
    Err(format!(
        "seed {seed} failed at {at}: {msg}\n{replay}\n{}",
        lines.join("\n")
    ))
}

/// A fixed configuration and a fixed body on the model; panics with the
/// seed, the step and the op trace.
pub fn scripted(seed: u64, cfg: Config, body: impl FnOnce(&mut Model)) -> Coverage {
    run(seed, Some(cfg), body).unwrap_or_else(|e| panic!("{e}"))
}

pub const SCRIPTED: Config = Config {
    case: "tpch_q2",
    shards: 2,
    delete: DeletePolicy::Tombstone,
    view: ViewMode::Materialized,
    durable: true,
    coalesce: false,
    supervised: false,
};

/// `cfg` through `INFINE_MODEL_STEPS / 2` steps (12 by default) on the
/// seed's op stream, with every `every`-th step replaced by `focus`.
pub fn slice(seed: u64, cfg: Config, every: usize, focus: impl Fn(&mut Model)) -> Coverage {
    scripted(seed, cfg, |m| {
        for i in 1..=steps() / 2 {
            if i % every == 0 {
                m.op(&focus);
            } else {
                m.step();
            }
        }
    })
}
