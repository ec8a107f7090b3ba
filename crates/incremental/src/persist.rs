//! Engine-state and round serialization for the durability layer.
//!
//! The service logs one commitlog record per coalesced round
//! ([`encode_round`] / [`decode_round`]) and snapshots the whole
//! [`ShardedEngine`] in *vacuum-canonical* form ([`freeze_engine`] /
//! [`restore_engine`]): the full-table mirror, every fragment database
//! (relations and dictionaries verbatim), per-shard and merged base
//! covers, the shard router's row-home maps, and the current pipeline
//! report. Everything else — PLIs, witnesses, dictionary indexes — is a
//! cache the restore path rebuilds (witnesses lazily: their absence
//! never changes a verdict), which is why recovery skips both base
//! mining and the pipeline replay a cold bootstrap would pay.
//!
//! All payloads ride inside CRC-checked containers (`infine-durability`
//! frames every WAL record and snapshot), so decoding here normally only
//! sees intact bytes; every reader still fails with an error — never a
//! panic — on anything malformed, because corruption tolerance must not
//! depend on the outer checksum being the only line of defense.

use crate::engine::{subquery_table_index, DeletePolicy, MaintenanceEngine, MaintenanceError};
use crate::shard::{fleet_obs, InsertPolicy, RowHome, ShardRouter, ShardedEngine, TableMap};
use crate::view::{ViewMode, VirtualView};
use infine_algebra::ViewSpec;
use infine_core::{base_scopes, BaseFds, FdKind, InFine, InFineReport, ProvenanceTriple};
use infine_discovery::{Fd, FdSet};
use infine_durability::crc32;
use infine_relation::wire::{self, Reader, WireError, Writer};
use infine_relation::{AttrSet, DeltaRelation};
use std::collections::HashMap;

/// Round flag bit: an explicit vacuum command was folded into this
/// round. (Policy-triggered vacuums are *not* logged — they are a pure
/// function of engine state and the caller-supplied policy, so replay
/// re-decides them identically.)
pub(crate) const ROUND_VACUUM: u8 = 1;
/// Round flag bit: an explicit snapshot command arrived with this round
/// (replay repeats the snapshot's canonicalizing vacuum without writing
/// a new snapshot).
pub(crate) const ROUND_SNAPSHOT: u8 = 2;
/// Round flag bit: the round ran degraded (queue depth above the ingest
/// policy's high-water mark), so policy vacuums and policy snapshot cuts
/// were skipped. Replay cannot recompute live queue depth, so the
/// decision is logged and replay skips the same policy triggers.
pub(crate) const ROUND_DEGRADED: u8 = 4;

fn de(e: WireError) -> MaintenanceError {
    MaintenanceError::Durability(e.to_string())
}

// ---- rounds ----

/// Encode one coalesced round: flag bits plus at most one delta batch
/// per table, name-sorted so the record bytes are deterministic.
pub(crate) fn encode_round(deltas: &[DeltaRelation], flags: u8) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(flags);
    let mut sorted: Vec<&DeltaRelation> = deltas.iter().collect();
    sorted.sort_by(|a, b| a.target.cmp(&b.target));
    w.u32(sorted.len() as u32);
    for d in sorted {
        wire::write_delta_relation(&mut w, d);
    }
    w.into_bytes()
}

/// Decode a round record body back into its batches and flag bits.
pub(crate) fn decode_round(bytes: &[u8]) -> Result<(Vec<DeltaRelation>, u8), MaintenanceError> {
    let mut r = Reader::new(bytes);
    let flags = r.u8().map_err(de)?;
    if flags & !(ROUND_VACUUM | ROUND_SNAPSHOT | ROUND_DEGRADED) != 0 {
        return Err(MaintenanceError::Durability(format!(
            "unknown round flags {flags:#04x}"
        )));
    }
    let n = r.count(8, "round batches").map_err(de)?;
    let mut deltas = Vec::with_capacity(n);
    for _ in 0..n {
        deltas.push(wire::read_delta_relation(&mut r).map_err(de)?);
    }
    if !r.is_empty() {
        return Err(MaintenanceError::Durability(format!(
            "{} trailing bytes after round record",
            r.remaining()
        )));
    }
    Ok((deltas, flags))
}

// ---- FDs, covers, provenance ----

fn write_fd(w: &mut Writer, fd: Fd) {
    w.u64(fd.lhs.bits());
    w.u32(fd.rhs as u32);
}

fn read_fd(r: &mut Reader) -> Result<Fd, WireError> {
    let lhs = AttrSet::from_bits(r.u64()?);
    let rhs = r.u32()? as usize;
    if rhs >= AttrSet::MAX_ATTRS {
        return Err(WireError(format!("FD rhs {rhs} out of range")));
    }
    if lhs.contains(rhs) {
        return Err(WireError(format!("trivial FD: rhs {rhs} in lhs {lhs:?}")));
    }
    Ok(Fd { lhs, rhs })
}

fn write_fd_set(w: &mut Writer, fds: &FdSet) {
    let sorted = fds.to_sorted_vec();
    w.u32(sorted.len() as u32);
    for fd in sorted {
        write_fd(w, fd);
    }
}

fn read_fd_set(r: &mut Reader) -> Result<FdSet, WireError> {
    let n = r.count(12, "FDs")?;
    let mut fds = FdSet::new();
    for _ in 0..n {
        // `insert_unchecked` reproduces the stored set exactly — the
        // encoder wrote an already-minimal antichain and re-minimizing
        // could silently drop members of a corrupted one.
        fds.insert_unchecked(read_fd(r)?);
    }
    Ok(fds)
}

fn write_base_fds(w: &mut Writer, covers: &BaseFds) {
    let mut labels: Vec<&String> = covers.keys().collect();
    labels.sort();
    w.u32(labels.len() as u32);
    for label in labels {
        w.str(label);
        write_fd_set(w, &covers[label]);
    }
}

fn read_base_fds(r: &mut Reader) -> Result<BaseFds, WireError> {
    let n = r.count(8, "base covers")?;
    let mut covers = BaseFds::new();
    for _ in 0..n {
        let label = r.str()?;
        let fds = read_fd_set(r)?;
        if covers.insert(label.clone(), fds).is_some() {
            return Err(WireError(format!("duplicate base label {label:?}")));
        }
    }
    Ok(covers)
}

fn write_triples(w: &mut Writer, triples: &[ProvenanceTriple]) {
    w.u32(triples.len() as u32);
    for t in triples {
        write_fd(w, t.fd);
        let kind = FdKind::ALL
            .iter()
            .position(|k| *k == t.kind)
            .expect("every FdKind is in ALL");
        w.u8(kind as u8);
        w.str(&t.subquery);
    }
}

fn read_triples(r: &mut Reader) -> Result<Vec<ProvenanceTriple>, WireError> {
    let n = r.count(17, "provenance triples")?;
    let mut triples = Vec::with_capacity(n);
    for _ in 0..n {
        let fd = read_fd(r)?;
        let kind = r.u8()? as usize;
        let kind = *FdKind::ALL
            .get(kind)
            .ok_or_else(|| WireError(format!("unknown FdKind tag {kind}")))?;
        let subquery = r.str()?;
        triples.push(ProvenanceTriple { fd, kind, subquery });
    }
    Ok(triples)
}

// ---- router ----

fn write_router(w: &mut Writer, router: &ShardRouter) {
    w.u32(router.shards as u32);
    match router.policy {
        InsertPolicy::Spread => w.u8(0),
        InsertPolicy::Fixed(k) => {
            w.u8(1);
            w.u32(k as u32);
        }
    }
    let mut names: Vec<&String> = router.tables.keys().collect();
    names.sort();
    w.u32(names.len() as u32);
    for name in names {
        let tm = &router.tables[name];
        w.str(name);
        w.u64(tm.cursor as u64);
        w.u32(tm.home.len() as u32);
        for h in &tm.home {
            w.u32(h.shard);
            w.u32(h.local);
        }
    }
}

fn read_router(r: &mut Reader) -> Result<ShardRouter, WireError> {
    let shards = r.u32()? as usize;
    if shards == 0 {
        return Err(WireError("router with zero shards".into()));
    }
    let policy = match r.u8()? {
        0 => InsertPolicy::Spread,
        1 => InsertPolicy::Fixed(r.u32()? as usize),
        t => return Err(WireError(format!("unknown insert-policy tag {t}"))),
    };
    let ntables = r.count(4, "router tables")?;
    let mut tables = HashMap::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.str()?;
        let cursor = r.u64()? as usize;
        let nrows = r.count(8, "row homes")?;
        let mut home = Vec::with_capacity(nrows);
        let mut frag_rows = vec![0usize; shards];
        for _ in 0..nrows {
            let shard = r.u32()?;
            let local = r.u32()?;
            if shard as usize >= shards {
                return Err(WireError(format!(
                    "row home names shard {shard} of {shards}"
                )));
            }
            if local as usize != frag_rows[shard as usize] {
                return Err(WireError(format!(
                    "row home local id {local} breaks shard {shard}'s append order"
                )));
            }
            frag_rows[shard as usize] += 1;
            home.push(RowHome { shard, local });
        }
        if tables
            .insert(
                name.clone(),
                TableMap {
                    home,
                    frag_rows,
                    cursor,
                },
            )
            .is_some()
        {
            return Err(WireError(format!("duplicate router table {name:?}")));
        }
    }
    Ok(ShardRouter {
        shards,
        policy,
        tables,
    })
}

// ---- whole-engine snapshots ----

/// Fingerprint of a view specification, stored in every snapshot so
/// recovery against the wrong spec fails loudly instead of replaying a
/// different view's pipeline over restored fragments.
pub(crate) fn spec_digest(spec: &ViewSpec) -> u32 {
    crc32(format!("{spec:?}").as_bytes())
}

/// Serialize a [`ShardedEngine`] in vacuum-canonical form. The engine
/// must hold no tombstones (run [`ShardedEngine::vacuum`] first): the
/// restore path rebuilds every fragment's scoped base state with
/// identity row maps, which is only correct for compacted fragments.
pub(crate) fn freeze_engine(engine: &mut ShardedEngine) -> Result<Vec<u8>, MaintenanceError> {
    if engine.tombstone_stats().dead_rows() != 0 {
        return Err(MaintenanceError::Durability(
            "snapshot requires a vacuumed engine (tombstones present)".into(),
        ));
    }
    let mut w = Writer::new();
    w.u32(spec_digest(&engine.spec));
    w.u8(match engine.shards[0].delete_policy() {
        DeletePolicy::Compact => 0,
        DeletePolicy::Tombstone => 1,
    });
    // The *active* view mode: a join-index request that fell back to
    // the exact path freezes (and restores) as materialized. The
    // virtual view itself is never serialized — only its cover; the
    // chains and join indexes rebuild from the mirror, which is why
    // join-index snapshots stay at base size.
    match engine.active_view_mode() {
        ViewMode::Materialized => w.u8(0),
        ViewMode::JoinIndex => {
            w.u8(1);
            write_fd_set(&mut w, &engine.cover);
        }
    }
    write_router(&mut w, &engine.router);
    wire::write_database(&mut w, &engine.db);
    for s in 0..engine.shards.len() {
        wire::write_database(&mut w, engine.shards[s].database());
        write_base_fds(&mut w, &engine.shards[s].base_covers());
    }
    write_base_fds(&mut w, &engine.merged_base);
    wire::write_schema(&mut w, &engine.report.schema);
    write_triples(&mut w, &engine.report.triples);
    Ok(w.into_bytes())
}

/// Rebuild a [`ShardedEngine`] from [`freeze_engine`] bytes. `infine`
/// and `spec` come from the caller (they configure the pipeline and are
/// not data); the snapshot's spec digest must match. Fragment base
/// states are restored without mining ([`CoverState::restore`]
/// (crate::CoverState::restore) settles the persisted covers), and the
/// persisted report is adopted verbatim — no pipeline replay.
pub(crate) fn restore_engine(
    bytes: &[u8],
    infine: InFine,
    spec: ViewSpec,
) -> Result<ShardedEngine, MaintenanceError> {
    let mut r = Reader::new(bytes);
    let digest = r.u32().map_err(de)?;
    if digest != spec_digest(&spec) {
        return Err(MaintenanceError::Durability(
            "snapshot was cut for a different view specification".into(),
        ));
    }
    let delete_policy = match r.u8().map_err(de)? {
        0 => DeletePolicy::Compact,
        1 => DeletePolicy::Tombstone,
        t => {
            return Err(MaintenanceError::Durability(format!(
                "unknown delete-policy tag {t}"
            )))
        }
    };
    let (view_mode, virtual_cover) = match r.u8().map_err(de)? {
        0 => (ViewMode::Materialized, None),
        1 => (ViewMode::JoinIndex, Some(read_fd_set(&mut r).map_err(de)?)),
        t => {
            return Err(MaintenanceError::Durability(format!(
                "unknown view-mode tag {t}"
            )))
        }
    };
    let router = read_router(&mut r).map_err(de)?;
    let db = wire::read_database(&mut r).map_err(de)?;
    // Cross-check the router against the mirror before paying for the
    // fragments: every mirror table must have a home map covering
    // exactly its rows.
    for name in db.names() {
        let Some(tm) = router.tables.get(name) else {
            return Err(MaintenanceError::Durability(format!(
                "router has no entry for table {name:?}"
            )));
        };
        if tm.home.len() != db.expect(name).nrows() {
            return Err(MaintenanceError::Durability(format!(
                "router maps {} rows of {name:?}, mirror holds {}",
                tm.home.len(),
                db.expect(name).nrows()
            )));
        }
    }
    if router.tables.len() != db.len() {
        return Err(MaintenanceError::Durability(
            "router names tables the mirror does not hold".into(),
        ));
    }
    let (obs, fanout) = fleet_obs();
    let _obs_scope = obs.registry.enter();
    let mut engines = Vec::with_capacity(router.shards);
    for s in 0..router.shards {
        let frag = wire::read_database(&mut r).map_err(de)?;
        for (name, tm) in &router.tables {
            let held = frag.get(name).map(|rel| rel.nrows()).unwrap_or(usize::MAX);
            if held != tm.frag_rows[s] {
                return Err(MaintenanceError::Durability(format!(
                    "shard {s}: fragment {name:?} disagrees with the router's size"
                )));
            }
        }
        let covers = read_base_fds(&mut r).map_err(de)?;
        engines.push(MaintenanceEngine::restore_base_only(
            InFine::default(),
            frag,
            spec.clone(),
            delete_policy,
            obs.registry.clone(),
            &covers,
        )?);
    }
    let merged_base = read_base_fds(&mut r).map_err(de)?;
    let schema = wire::read_schema(&mut r).map_err(de)?;
    let triples = read_triples(&mut r).map_err(de)?;
    if !r.is_empty() {
        return Err(MaintenanceError::Durability(format!(
            "{} trailing bytes after engine snapshot",
            r.remaining()
        )));
    }
    let scopes = base_scopes(&db, &spec)?;
    let report = InFineReport {
        schema,
        triples,
        timings: infine_core::PhaseTimings::default(),
        stats: infine_core::PipelineStats::default(),
    };
    let subquery_tables = subquery_table_index(&spec);
    // Join-index snapshots carry the maintained virtual cover (it can
    // be ahead of the persisted triples, whose labels froze at
    // bootstrap); the virtual view rebuilds from the restored mirror
    // with that cover pinned — no re-mining.
    let (cover, virtual_view) = match virtual_cover {
        Some(vc) => {
            let vv = VirtualView::restore(&db, &spec, DeletePolicy::Compact, vc.clone())
                .ok_or_else(|| {
                    MaintenanceError::Durability(
                        "join-index snapshot for a spec outside the virtual subset".into(),
                    )
                })?;
            (vc, Some(vv))
        }
        None => (report.fd_set(), None),
    };
    Ok(ShardedEngine {
        infine,
        spec,
        db,
        table_indexes: HashMap::new(),
        router,
        shards: engines,
        scopes,
        merged_base,
        report,
        cover,
        view_mode,
        virtual_view,
        subquery_tables,
        obs,
        fanout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MaintenanceEngine as Unsharded;
    use infine_relation::{relation_from_rows, Database, DeltaBatch, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(relation_from_rows(
            "p",
            &["pid", "grp", "flag"],
            &[
                &[Value::Int(1), Value::str("a"), Value::Int(0)],
                &[Value::Int(2), Value::str("a"), Value::Int(0)],
                &[Value::Int(3), Value::str("b"), Value::Int(1)],
                &[Value::Int(4), Value::str("b"), Value::Int(1)],
            ],
        ));
        db.insert(relation_from_rows(
            "q",
            &["pid", "site"],
            &[
                &[Value::Int(1), Value::str("x")],
                &[Value::Int(2), Value::str("x")],
                &[Value::Int(3), Value::str("y")],
            ],
        ));
        db
    }

    fn view() -> ViewSpec {
        ViewSpec::base("p").inner_join(ViewSpec::base("q"), &["pid"])
    }

    fn a_round() -> Vec<DeltaRelation> {
        let mut bp = DeltaBatch::new();
        bp.delete(0)
            .insert(vec![Value::Int(5), Value::str("c"), Value::Int(2)]);
        let mut bq = DeltaBatch::new();
        bq.insert(vec![Value::Int(5), Value::str("z")]);
        vec![DeltaRelation::new("q", bq), DeltaRelation::new("p", bp)]
    }

    #[test]
    fn round_codec_round_trips_and_sorts() {
        let round = a_round();
        let bytes = encode_round(&round, ROUND_VACUUM | ROUND_SNAPSHOT);
        let (decoded, flags) = decode_round(&bytes).unwrap();
        assert_eq!(flags, ROUND_VACUUM | ROUND_SNAPSHOT);
        // name-sorted on the wire regardless of input order
        assert_eq!(decoded[0].target, "p");
        assert_eq!(decoded[1].target, "q");
        assert_eq!(decoded[0].batch.deletes, round[1].batch.deletes);
        assert_eq!(decoded[0].batch.inserts, round[1].batch.inserts);
        assert_eq!(decoded[1].batch.inserts, round[0].batch.inserts);
        // deterministic bytes: re-encoding the decoded round is identity
        assert_eq!(encode_round(&decoded, ROUND_VACUUM | ROUND_SNAPSHOT), bytes);
        // empty rounds (flush/vacuum-only) encode fine
        let (empty, flags) = decode_round(&encode_round(&[], 0)).unwrap();
        assert!(empty.is_empty());
        assert_eq!(flags, 0);
    }

    #[test]
    fn round_codec_rejects_garbage_without_panicking() {
        assert!(decode_round(&[]).is_err());
        assert!(decode_round(&[0xFF]).is_err()); // unknown flags
        let mut bytes = encode_round(&a_round(), 0);
        bytes.truncate(bytes.len() - 3);
        assert!(decode_round(&bytes).is_err());
        bytes.push(0);
        for cut in 0..bytes.len() {
            let _ = decode_round(&bytes[..cut]); // must not panic
        }
    }

    #[test]
    fn frozen_engine_restores_to_an_equivalent_engine() {
        let mut original = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        original.apply(&a_round()).unwrap();
        let bytes = freeze_engine(&mut original).unwrap();
        let restored = restore_engine(&bytes, InFine::default(), view()).unwrap();

        assert_eq!(restored.report.triples, original.report.triples);
        assert_eq!(
            restored.cover.to_sorted_vec(),
            original.cover.to_sorted_vec()
        );
        // Mirror and fragments byte-equal (codes and dictionaries).
        for name in ["p", "q"] {
            let a = original.db.expect(name);
            let b = restored.db.expect(name);
            for c in 0..a.ncols() {
                assert_eq!(a.column(c).codes, b.column(c).codes);
                assert_eq!(a.column(c).dict.as_slice(), b.column(c).dict.as_slice());
            }
        }
        restored.self_check();

        // Future rounds diverge in neither triples nor covers: compare a
        // restored engine against the original *and* an unsharded
        // reference across another round.
        let mut restored = restored;
        let mut unsharded = Unsharded::with_defaults(db(), view()).unwrap();
        unsharded.apply(&a_round()).unwrap();
        let mut next = DeltaBatch::new();
        next.delete(1)
            .insert(vec![Value::Int(9), Value::str("d"), Value::Int(3)]);
        let round = vec![DeltaRelation::new("p", next)];
        let a = original.apply(&round).unwrap();
        let b = restored.apply(&round).unwrap();
        let c = unsharded.apply(&round).unwrap();
        assert_eq!(a.triples, b.triples);
        assert_eq!(b.triples, c.triples);
        assert_eq!(a.cover.to_sorted_vec(), b.cover.to_sorted_vec());
    }

    #[test]
    fn restore_rejects_wrong_spec_and_corrupt_payloads() {
        let mut engine = ShardedEngine::new(InFine::default(), db(), view(), 2).unwrap();
        let bytes = freeze_engine(&mut engine).unwrap();
        let wrong = ViewSpec::base("p");
        assert!(matches!(
            restore_engine(&bytes, InFine::default(), wrong),
            Err(MaintenanceError::Durability(_))
        ));
        // Every truncation errors, never panics.
        for cut in 0..bytes.len() {
            assert!(restore_engine(&bytes[..cut], InFine::default(), view()).is_err());
        }
    }

    #[test]
    fn freeze_refuses_tombstoned_engines() {
        let mut engine = ShardedEngine::with_options(
            InFine::default(),
            db(),
            view(),
            2,
            InsertPolicy::default(),
            DeletePolicy::Tombstone,
            ViewMode::default(),
        )
        .unwrap();
        let mut b = DeltaBatch::new();
        b.delete(0);
        engine.apply(&[DeltaRelation::new("p", b)]).unwrap();
        assert!(matches!(
            freeze_engine(&mut engine),
            Err(MaintenanceError::Durability(_))
        ));
        engine.vacuum();
        let bytes = freeze_engine(&mut engine).unwrap();
        let restored = restore_engine(&bytes, InFine::default(), view()).unwrap();
        assert_eq!(restored.report.triples, engine.report.triples);
    }
}
