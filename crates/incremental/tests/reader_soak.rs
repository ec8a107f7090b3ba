//! Reader-consistency slices of the service model, one per shard count:
//! a durable service takes 1-row inserts with reads between the send and
//! the report, plain reads, a worker crash and respawn mid-stream, and a
//! fresh `recover` at the end. Every read after report N sees a round
//! ≥ N, every sampled cover equals its round's reported cover, rounds
//! never go backwards for the reader, and the recovered reader resumes at
//! the durable head (`model/mod.rs`, invariants 3, 4 and 9).

mod model;

use infine_durability::failpoint::WAL_APPEND;
use model::*;

fn readers(shards: usize, seed: u64) {
    let cfg = Config { shards, ..SCRIPTED };
    let coverage = scripted(seed, cfg, |m| {
        let n = steps() / 2;
        for i in 0..n {
            match i % 3 {
                _ if i == n / 2 => m.op(|m| m.fault(Fault::Crash(WAL_APPEND))),
                0 => m.op(|m| m.insert_one()),
                1 => m.op(|m| m.reads()),
                _ => m.step(),
            }
        }
        m.op(|m| m.recover());
    });
    assert!(coverage.contains_key("recover"), "never recovered");
}

#[test]
fn readers_observe_exact_round_covers_1_shard() {
    readers(1, 0x4EAD_0001);
}

#[test]
fn readers_observe_exact_round_covers_2_shards() {
    readers(2, 0x4EAD_0002);
}

#[test]
fn readers_observe_exact_round_covers_4_shards() {
    readers(4, 0x4EAD_0004);
}
