//! Criterion: PODEM test-generation rate (faults targeted/second).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dft_core::atpg::Podem;
use dft_core::fault::universe_stuck_at;
use dft_core::netlist::generators::{alu, decoder, mac_pe};

fn bench_podem(c: &mut Criterion) {
    let mut group = c.benchmark_group("podem");
    group.sample_size(10);
    let circuits = [("alu8", alu(8)), ("dec5", decoder(5)), ("mac4", mac_pe(4))];
    for (name, nl) in &circuits {
        let mut podem = Podem::new(nl);
        let faults = universe_stuck_at(nl);
        let sample: Vec<_> = faults.iter().step_by(7).copied().collect();
        group.throughput(Throughput::Elements(sample.len() as u64));
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut found = 0usize;
                for &f in &sample {
                    if podem.generate(f, 128).0.is_test() {
                        found += 1;
                    }
                }
                found
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_podem);
criterion_main!(benches);
