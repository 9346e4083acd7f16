//! Criterion: checkpoint overhead. The acceptance bar for durable
//! flows is <= 2% wall-clock over a run without a journal, so this group
//! times the same ATPG run two ways: `plain` (`Atpg::run`, the one
//! durable path with a token that never fires and no journal) and with
//! a journal at the default cadence. A second group times the
//! storage-resilience layer itself: replicated appends and `fsck` scans
//! over a populated journal.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_core::atpg::{Atpg, AtpgConfig, Durability};
use dft_core::checkpoint::{fsck, replica_path, scrub, CancelToken, FramedJournal, CKPT_FORMAT};
use dft_core::netlist::generators::mac_pe;

fn bench_checkpoint_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_overhead");
    group.sample_size(10);
    let nl = mac_pe(4);
    let atpg = Atpg::new(&nl);
    let cfg = AtpgConfig::default();
    let faults = atpg.run(&cfg).fault_list.len() as u64;
    group.throughput(Throughput::Elements(faults));

    group.bench_function("plain", |b| {
        b.iter(|| atpg.run(&cfg));
    });

    let path = std::env::temp_dir().join(format!("aidft-bench-ckpt-{}.ckpt", std::process::id()));
    group.bench_function("durable_journal_every64", |b| {
        b.iter(|| {
            std::fs::remove_file(&path).ok();
            let mut dur = Durability::new(CancelToken::new())
                .with_journal(FramedJournal::new(&path, CKPT_FORMAT));
            atpg.run_durable(&cfg, &mut dur).expect("uninterrupted")
        });
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

fn bench_storage_resilience(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_resilience");
    group.sample_size(20);
    let dir = std::env::temp_dir().join(format!("aidft-bench-storage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let body = "die 7 pass 1 sig deadbeefdeadbeef\n".repeat(16);
    let cleanup = |path: &std::path::Path| {
        for r in 0..3 {
            let p = replica_path(path, r);
            std::fs::remove_file(scrub::scrub_path(&p)).ok();
            std::fs::remove_file(&p).ok();
        }
    };

    // The cost of mirroring one append across N replicas (plus the
    // scrub-sidecar note): the per-checkpoint price of surviving a
    // rotted copy.
    for replicas in [1u32, 2, 3] {
        let path = dir.join(format!("append-r{replicas}.ckpt"));
        let journal = FramedJournal::new(&path, "bench-v1").with_replicas(replicas);
        let mut seq = 0u64;
        group.bench_function(format!("append_{replicas}_replicas"), |b| {
            b.iter(|| {
                journal.append(seq, &body).unwrap();
                seq += 1;
            });
        });
        cleanup(&path);
    }

    // A full fsck scan of a 256-record journal: the recovery-time cost
    // of classifying every region against its checksum.
    let path = dir.join("fsck-scan.ckpt");
    let journal = FramedJournal::new(&path, "bench-v1");
    for seq in 0..256u64 {
        journal.append(seq, &body).unwrap();
    }
    group.throughput(Throughput::Elements(256));
    group.bench_function("fsck_scan_256_records", |b| {
        b.iter(|| fsck::scan(&path).unwrap());
    });
    cleanup(&path);
    group.finish();
}

criterion_group!(benches, bench_checkpoint_overhead, bench_storage_resilience);
criterion_main!(benches);
