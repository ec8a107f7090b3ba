//! Every call the benchmark makes into the InFine crates lives in this
//! file: input generation, discovery, the reference path (materialize the
//! view, run TANE on it), engine bootstrap, the maintenance service
//! (spawn, spawn_durable, recover, ingest, reports, reads) and the metrics
//! registry. The rest of the benchmark sees only the types defined here,
//! so a change to the public API is absorbed in this one file.
//!
//! Configuration is the library default everywhere except the two knobs
//! the workloads name: the shard count and the snapshot cadence.

use infine_algebra::ViewSpec;
use infine_core::{InFine, InFineReport};
use infine_datagen::{find, random_delta, DatasetKind, Scale};
use infine_discovery::{Algorithm, Fd, FdSet};
use infine_incremental::{
    CoverReader, DurabilityOptions, FdStatus, MaintenanceReport, MaintenanceService, ShardedEngine,
    SnapshotPolicy, VacuumPolicy,
};
use infine_relation::{AttrSet, Database, DeltaRelation, Relation, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds between snapshot cuts of a durable service.
pub const SNAPSHOT_EVERY: u64 = 16;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Worker threads of the library's fork-join pool, process-wide.
pub fn set_pool_threads(n: usize) {
    infine_exec::set_parallelism(n);
}

/// One catalog view with its generated database.
pub struct Case {
    pub id: &'static str,
    spec: ViewSpec,
    db: Database,
}

/// Generate the databases of catalog views `ids` at `factor` of the
/// paper's row counts (views on one dataset share one generated
/// database). The instance is the generator's default one: across
/// generator seeds the small views' FD structure, and with it the work,
/// changes by up to 2x, which would read as run-to-run noise.
pub fn cases(ids: &[&str], factor: f64) -> Vec<Case> {
    let mut generated: Vec<(DatasetKind, Database)> = Vec::new();
    ids.iter()
        .map(|id| {
            let q = find(id).unwrap_or_else(|| panic!("unknown catalog view {id}"));
            let db = match generated.iter().find(|(kind, _)| *kind == q.dataset) {
                Some((_, db)) => db.clone(),
                None => {
                    let db = q.dataset.generate(Scale::of(factor));
                    generated.push((q.dataset, db.clone()));
                    db
                }
            };
            Case {
                id: q.id,
                spec: q.spec,
                db,
            }
        })
        .collect()
}

pub fn case(id: &str, factor: f64) -> Case {
    cases(&[id], factor).remove(0)
}

/// An FD cover with the attribute names of its schema, so covers from
/// different entry points compare by name rather than by attribute id.
#[derive(Clone)]
pub struct Cover {
    names: Vec<String>,
    fds: FdSet,
}

impl Cover {
    fn new(schema: &Schema, fds: FdSet) -> Cover {
        Cover {
            names: (0..schema.len())
                .map(|i| schema.name(i).to_string())
                .collect(),
            fds,
        }
    }

    /// Logical equivalence after aligning `other`'s attributes to ours by
    /// name; false when the schemas name different attributes.
    pub fn equivalent(&self, other: &Cover) -> bool {
        let map: Option<Vec<usize>> = other
            .names
            .iter()
            .map(|n| self.names.iter().position(|m| m == n))
            .collect();
        let Some(map) = map.filter(|_| other.names.len() == self.names.len()) else {
            return false;
        };
        let aligned = FdSet::from_fds(other.fds.iter().map(|fd| {
            Fd::new(
                fd.lhs.iter().map(|a| map[a]).collect::<AttrSet>(),
                map[fd.rhs],
            )
        }));
        aligned.equivalent(&self.fds)
    }

    /// Exact equality (same schema, same FDs) — the cheap check between
    /// repeated runs of one entry point.
    pub fn same(&self, other: &Cover) -> bool {
        self.names == other.names && self.fds.to_sorted_vec() == other.fds.to_sorted_vec()
    }
}

/// Phase split of one `InFine::discover` call, in milliseconds.
#[derive(Clone, Copy, Default)]
pub struct CorePhases {
    pub base_mining: f64,
    pub io: f64,
    pub upstage: f64,
    pub infer: f64,
    pub mine: f64,
}

impl CorePhases {
    pub fn total(&self) -> f64 {
        self.base_mining + self.io + self.upstage + self.infer + self.mine
    }

    pub fn add(&mut self, o: &CorePhases) {
        self.base_mining += o.base_mining;
        self.io += o.io;
        self.upstage += o.upstage;
        self.infer += o.infer;
        self.mine += o.mine;
    }
}

/// Work counters of one `InFine::discover` call.
#[derive(Clone, Copy, Default)]
pub struct CoreCounts {
    pub mine_validated: u64,
    pub pruned_by_theorem4: u64,
    pub partial_join_rows: u64,
}

impl CoreCounts {
    pub fn add(&mut self, o: &CoreCounts) {
        self.mine_validated += o.mine_validated;
        self.pruned_by_theorem4 += o.pruned_by_theorem4;
        self.partial_join_rows += o.partial_join_rows;
    }
}

/// The result of `InFine::discover`.
pub struct Discovery {
    pub cover: Cover,
    pub phases: CorePhases,
    pub counts: CoreCounts,
}

fn discovery(report: InFineReport) -> Discovery {
    let t = report.timings;
    Discovery {
        cover: Cover::new(&report.schema, report.fd_set()),
        phases: CorePhases {
            base_mining: ms(t.base_mining),
            io: ms(t.io),
            upstage: ms(t.upstage),
            infer: ms(t.infer),
            mine: ms(t.mine),
        },
        counts: CoreCounts {
            mine_validated: report.stats.mine_validated as u64,
            pruned_by_theorem4: report.stats.pruned_by_theorem4 as u64,
            partial_join_rows: report.stats.partial_join_rows as u64,
        },
    }
}

/// `InFine::discover` with the default configuration on the case's view.
pub fn discover(case: &Case) -> Result<Discovery, String> {
    InFine::default()
        .discover(&case.db, &case.spec)
        .map(discovery)
        .map_err(|e| e.to_string())
}

/// The reference path: materialize the view, then TANE on the result.
pub struct Reference {
    pub cover: Cover,
    pub execute_ms: f64,
    pub tane_ms: f64,
}

pub fn reference(case: &Case) -> Result<Reference, String> {
    let t0 = Instant::now();
    let view = infine_algebra::execute(&case.spec, &case.db).map_err(|e| e.to_string())?;
    let execute_ms = ms(t0.elapsed());
    let t1 = Instant::now();
    let fds = Algorithm::Tane.discover(&view);
    let tane_ms = ms(t1.elapsed());
    Ok(Reference {
        cover: Cover::new(&view.schema, fds),
        execute_ms,
        tane_ms,
    })
}

/// One round's worth of base-table changes.
#[derive(Clone)]
pub struct Delta(DeltaRelation);

/// What a stream changes each round.
#[derive(Clone, Copy)]
pub enum Change {
    /// Half deletes, half inserts, sized as a fraction of the table's live
    /// rows.
    Churn(f64),
    /// This many inserts, no deletes.
    Insert(usize),
}

/// A seeded delta stream against one table of a case, which also evolves
/// the oracle copy of that table. Deletes hit random live rows; inserts
/// are perturbed copies of the table's *original* rows, so the data keep
/// one distribution however long the stream runs.
pub struct Stream {
    target: &'static str,
    change: Change,
    origin: Relation,
    rel: Relation,
    rng: StdRng,
}

impl Stream {
    pub fn new(case: &Case, target: &'static str, change: Change, seed: u64) -> Stream {
        let origin = case.db.expect(target).clone();
        Stream {
            target,
            change,
            rel: origin.clone(),
            origin,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next round's delta; the oracle table moves past it.
    pub fn next_delta(&mut self) -> Delta {
        let (deletes, inserts) = match self.change {
            Change::Churn(fraction) => {
                let changes = ((self.rel.live_rows() as f64 * fraction) as usize).max(2);
                (changes / 2, changes - changes / 2)
            }
            Change::Insert(rows) => (0, rows),
        };
        let mut batch = random_delta(&mut self.rng, &self.rel, deletes, 0);
        batch.inserts = random_delta(&mut self.rng, &self.origin, 0, inserts).inserts;
        let (next, _) = self.rel.apply_delta(&batch, self.target);
        self.rel = next;
        Delta(DeltaRelation::new(self.target, batch))
    }

    /// The oracle table as of every delta generated so far.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.rel.clone())
    }
}

/// A stream's target table at one point of the stream.
pub struct Checkpoint(Relation);

impl Case {
    /// A copy of the generated database (the input a bootstrap consumes).
    pub fn database(&self) -> Database {
        self.db.clone()
    }

    /// The producer's oracle: this case with a stream's target table as of
    /// `checkpoint`.
    pub fn at(&self, checkpoint: &Checkpoint) -> Case {
        let mut db = self.db.clone();
        db.insert(checkpoint.0.clone());
        Case {
            id: self.id,
            spec: self.spec.clone(),
            db,
        }
    }
}

/// One maintenance round as a report describes it.
pub struct Round {
    pub delta_apply_ms: f64,
    pub base_maintain_ms: f64,
    pub view_maintain_ms: f64,
    pub pipeline_ms: f64,
    /// Held FDs the round left untouched, and held FDs in all.
    pub untouched: u64,
    pub held: u64,
    /// Rows the round inserted into base tables. A sharded report has one
    /// entry per (label, shard), and each workload's view names each table
    /// once, so every row counts once.
    pub inserted: u64,
}

impl Round {
    pub fn phases_ms(&self) -> f64 {
        self.delta_apply_ms + self.base_maintain_ms + self.view_maintain_ms + self.pipeline_ms
    }
}

fn round(report: &MaintenanceReport) -> Round {
    let t = report.timings;
    Round {
        delta_apply_ms: ms(t.delta_apply),
        base_maintain_ms: ms(t.base_maintain),
        view_maintain_ms: ms(t.view_maintain),
        pipeline_ms: ms(t.pipeline),
        untouched: report.count_status(FdStatus::Untouched) as u64,
        held: report.held.len() as u64,
        inserted: report.base.iter().map(|b| b.inserted as u64).sum(),
    }
}

/// A bootstrapped sharded engine, used bare or handed to a service.
pub struct Engine(ShardedEngine);

/// `ShardedEngine::new` over a copy of the case's database.
pub fn bootstrap(case: &Case, db: Database, shards: usize) -> Result<Engine, String> {
    ShardedEngine::new(InFine::default(), db, case.spec.clone(), shards)
        .map(Engine)
        .map_err(|e| e.to_string())
}

impl Engine {
    pub fn apply(&mut self, delta: &Delta) -> Result<Round, String> {
        self.0
            .apply(std::slice::from_ref(&delta.0))
            .map(|r| round(&r))
            .map_err(|e| e.to_string())
    }

    /// Physical rows held by the fragment engines.
    pub fn resident_rows(&self) -> u64 {
        self.0.tombstone_stats().physical_rows as u64
    }

    /// Dictionary entries held by the fragment engines.
    pub fn dict_entries(&self) -> u64 {
        self.0.tombstone_stats().dict_entries as u64
    }

    fn cover(&self) -> Cover {
        Cover::new(&self.0.report().schema, self.0.fd_set())
    }
}

/// A running maintenance service with one cover reader.
pub struct Service {
    service: MaintenanceService,
    reader: CoverReader,
}

fn durability(dir: &Path) -> DurabilityOptions {
    DurabilityOptions::new(dir).snapshot_policy(SnapshotPolicy::every_rounds(SNAPSHOT_EVERY))
}

/// `MaintenanceService::spawn`: in memory.
pub fn spawn(engine: Engine) -> Service {
    Service::new(MaintenanceService::spawn(engine.0))
}

/// `MaintenanceService::spawn_durable` under `dir`: the WAL is appended
/// and flushed every round, a snapshot is cut every [`SNAPSHOT_EVERY`]
/// rounds.
pub fn spawn_durable(engine: Engine, dir: &Path) -> Result<Service, String> {
    MaintenanceService::spawn_durable(engine.0, VacuumPolicy::default(), durability(dir))
        .map(Service::new)
        .map_err(|e| e.to_string())
}

/// What `MaintenanceService::recover` found.
pub struct Recovery {
    pub durable_rounds: u64,
    pub replayed_rounds: u64,
    pub clean_shutdown: bool,
}

/// `MaintenanceService::recover` from the durable state under `dir`.
pub fn recover(case: &Case, dir: &Path) -> Result<(Service, Recovery), String> {
    let (service, info) = MaintenanceService::recover(
        durability(dir),
        InFine::default(),
        case.spec.clone(),
        VacuumPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    let recovery = Recovery {
        durable_rounds: info.durable_rounds,
        replayed_rounds: info.replayed_rounds,
        clean_shutdown: info.clean_shutdown,
    };
    Ok((Service::new(service), recovery))
}

impl Service {
    fn new(service: MaintenanceService) -> Service {
        let reader = service.reader();
        Service { service, reader }
    }

    pub fn ingest(&self, delta: &Delta) -> Result<(), String> {
        self.service
            .ingest(vec![delta.0.clone()])
            .map_err(|e| e.to_string())
    }

    /// Block for the next round report.
    pub fn await_report(&self) -> Result<Round, String> {
        match self.service.recv_report() {
            Some(Ok(report)) => Ok(round(&report)),
            Some(Err(e)) => Err(e.to_string()),
            None => Err("service stopped".into()),
        }
    }

    /// The next round report if one is waiting.
    pub fn poll_report(&self) -> Option<Result<Round, String>> {
        self.service
            .try_recv_report()
            .map(|r| r.map(|report| round(&report)).map_err(|e| e.to_string()))
    }

    /// One wait-free `CoverReader::current` read; the round it is as of.
    pub fn read_round(&self) -> u64 {
        self.reader.current().round
    }

    /// Wait until the worker has published `round` and holds no queued or
    /// in-flight batch: it is blocked waiting for work.
    pub fn wait_idle(&self, round: u64) {
        loop {
            let stats = self.service.stats();
            if self.read_round() >= round && stats.queue_depth == 0 && stats.in_flight == 0 {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop the worker and return the final cover.
    pub fn shutdown(self) -> Result<Cover, String> {
        self.service
            .shutdown()
            .map(|engine| Engine(engine).cover())
            .map_err(|e| e.to_string())
    }
}

/// A snapshot of the process-wide metrics registry.
pub struct Counters(infine_obs::Snapshot);

pub fn counters() -> Counters {
    Counters(infine_obs::snapshot())
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(self.0.since(&earlier.0))
    }

    fn total(&self, name: &str) -> f64 {
        self.0.total(name)
    }

    pub fn kernel_checks(&self) -> f64 {
        self.total("infine_kernel_checks_total")
    }

    pub fn kernel_early_exits(&self) -> f64 {
        self.total("infine_kernel_early_exits_total")
    }

    pub fn cache_hits(&self) -> f64 {
        self.total("infine_pli_cache_hits_total")
    }

    pub fn cache_misses(&self) -> f64 {
        self.total("infine_pli_cache_misses_total")
    }

    pub fn exec_tasks(&self) -> f64 {
        self.total("infine_exec_tasks_total")
    }

    pub fn exec_steals(&self) -> f64 {
        self.total("infine_exec_steals_total")
    }

    /// Shards the sharded engines' rounds touched, summed over rounds.
    pub fn touched_shards(&self) -> f64 {
        self.total("infine_shard_fanout_shards_sum")
    }

    /// Cover publishes and their summed seconds.
    pub fn publishes(&self) -> (f64, f64) {
        (
            self.total("infine_publish_seconds_count"),
            self.total("infine_publish_seconds_sum"),
        )
    }

    /// Snapshot cuts and their summed seconds.
    pub fn snapshot_cuts(&self) -> (f64, f64) {
        (
            self.total("infine_snapshot_seconds_count"),
            self.total("infine_snapshot_seconds_sum"),
        )
    }

    /// WAL appends and the bytes they wrote.
    pub fn wal(&self) -> (f64, f64) {
        (
            self.total("infine_wal_appends_total"),
            self.total("infine_wal_bytes_total"),
        )
    }

    /// Recoveries and their summed seconds (snapshot load, replay, cut;
    /// the worker spawn excluded).
    pub fn recoveries(&self) -> (f64, f64) {
        (
            self.total("infine_recovery_seconds_count"),
            self.total("infine_recovery_seconds_sum"),
        )
    }
}

/// Size of the newest snapshot file under a durable service's directory.
pub fn snapshot_bytes(dir: &Path) -> u64 {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max();
    newest
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// Peak heap bytes above the entry level while `f` runs. Meaningful only
/// in a binary that registers the counting allocator.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    infine_bench::alloc::measure_peak(f)
}
