//! Criterion microbenchmarks of the bf16 substrate: scalar conversion,
//! arithmetic, and the 16-input adder-tree reduction used by every COMP —
//! the allocating oracle step and the batched folds, with a counting
//! allocator proving the folds perform zero heap allocation per call. The
//! production kernel is timed twice in one process: on freestanding
//! planes and on rows where `Storage` keeps them.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use newton_bf16::reduce::TreePrecision;
use newton_bf16::{reduce, simd, Bf16};
use newton_dram::{DramConfig, Storage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts bytes handed out by the real system allocator, so benches can
/// assert a code path never touches the heap.
struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to the system allocator;
// the only addition is a relaxed byte counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes allocated while running `f`.
fn alloc_delta<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATED_BYTES.load(Ordering::Relaxed) - before, r)
}

fn bench_bf16(c: &mut Criterion) {
    let xs: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
    c.bench_function("bf16/from_f32 x1024", |b| {
        b.iter(|| {
            let mut acc = 0u16;
            for &x in &xs {
                acc ^= Bf16::from_f32(black_box(x)).to_bits();
            }
            acc
        })
    });

    let bf: Vec<Bf16> = xs.iter().map(|&x| Bf16::from_f32(x)).collect();
    c.bench_function("bf16/scalar mul-add x1024", |b| {
        b.iter(|| {
            let mut acc = Bf16::ZERO;
            for w in bf.chunks_exact(2) {
                acc = acc.accumulate_wide(w[0].mul_round(w[1]).to_f32());
            }
            acc
        })
    });

    let weights = &bf[..16];
    let inputs = &bf[16..32];
    c.bench_function("bf16/dot_chunk_wide (one COMP step)", |b| {
        b.iter(|| reduce::dot_chunk_wide(black_box(weights), black_box(inputs)))
    });

    // The oracle's COMP: one scalar step, latch accumulation included.
    c.bench_function("bf16/comp_step x16 (one oracle COMP)", |b| {
        b.iter(|| reduce::comp_step(black_box(Bf16::ZERO), black_box(weights), black_box(inputs)))
    });
}

/// The batched folds that interleave a gang's per-bank latch chains —
/// row-major and the production lane-major kernel, on freestanding planes
/// and on storage rows.
fn bench_bf16_simd(c: &mut Criterion) {
    // One hbm2e-like row: 32 sub-chunks x 16 elements.
    let row_v: Vec<f32> = (0..512)
        .map(|i| Bf16::from_f32((i as f32 * 0.11).cos()).to_f32())
        .collect();

    // Full 16-bank gang of one row-set (the event-skipping COMP payload).
    let planes: Vec<Vec<f32>> = (0..16)
        .map(|k| {
            (0..512)
                .map(|i| Bf16::from_f32(((i + 37 * k) as f32 * 0.29).sin()).to_f32())
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = planes.iter().map(Vec::as_slice).collect();
    c.bench_function("bf16/comp_subchunks16_multi 16 banks (one row-set)", |b| {
        b.iter(|| {
            let mut latches = [Bf16::ZERO; 16];
            simd::comp_subchunks16_multi(
                black_box(&mut latches),
                black_box(&refs),
                black_box(&row_v),
                TreePrecision::Wide,
            );
            latches
        })
    });

    // The same row-set through the production lane-major kernel.
    let lane_planes: Vec<simd::LanePlane> = planes.iter().map(|p| lane_plane(p)).collect();
    let lane_refs: Vec<&simd::LanePlane> = lane_planes.iter().collect();
    let lane_v = lane_plane(&row_v);
    c.bench_function("bf16/comp_row_set 16 banks (one row-set)", |b| {
        b.iter(|| {
            let mut latches = [Bf16::ZERO; 16];
            simd::comp_row_set(
                black_box(&mut latches),
                black_box(&lane_refs),
                black_box(&lane_v),
                32,
            );
            latches
        })
    });
    // The same gang where the simulator finds it: one row of each of 16
    // banks of a channel's storage, written as DRAM row bytes.
    let storage = gang_storage(&planes);
    let stored: Vec<&simd::LanePlane> = (0..16)
        .map(|bank| storage.lanes(bank, 0).expect("in range"))
        .collect();
    let mut on_planes = [Bf16::ZERO; 16];
    simd::comp_row_set(&mut on_planes, &lane_refs, &lane_v, 32);
    let mut on_rows = [Bf16::ZERO; 16];
    simd::comp_row_set(&mut on_rows, &stored, &lane_v, 32);
    assert_eq!(on_planes, on_rows, "storage rows fold as their planes do");
    c.bench_function(
        "bf16/comp_row_set 16 banks on storage rows (one row-set)",
        |b| {
            b.iter(|| {
                let mut latches = [Bf16::ZERO; 16];
                simd::comp_row_set(
                    black_box(&mut latches),
                    black_box(&stored),
                    black_box(&lane_v),
                    32,
                );
                latches
            })
        },
    );
}

/// One channel's storage holding `rows[k]` as row 0 of bank `k`.
fn gang_storage(rows: &[Vec<f32>]) -> Storage {
    let mut storage = Storage::new(&DramConfig::hbm2e_like());
    for (bank, row) in rows.iter().enumerate() {
        let bf: Vec<Bf16> = row.iter().map(|&x| Bf16::from_f32(x)).collect();
        storage
            .write_row(bank, 0, &newton_bf16::slice::pack(&bf))
            .expect("in range");
    }
    storage
}

/// The lane-major plane of an exactly-widened `f32` row.
fn lane_plane(row: &[f32]) -> simd::LanePlane {
    let bf: Vec<Bf16> = row.iter().map(|&x| Bf16::from_f32(x)).collect();
    let mut plane = simd::LanePlane::zeroed(bf.len());
    plane.write(0, &bf);
    plane
}

/// Not a timing bench: proves the batched folds, on freestanding planes
/// and on storage rows, never allocate.
/// Runs under `--test` too, so `cargo test` exercises the assertion.
fn bench_zero_alloc_proof(c: &mut Criterion) {
    let xs: Vec<f32> = (0..128).map(|i| (i as f32).cos()).collect();
    let bf: Vec<Bf16> = xs.iter().map(|&x| Bf16::from_f32(x)).collect();

    // SIMD operands (plain slices built before the counted region).
    let row_w: Vec<f32> = bf.iter().cycle().take(512).map(|x| x.to_f32()).collect();
    let row_v: Vec<f32> = bf
        .iter()
        .rev()
        .cycle()
        .take(512)
        .map(|x| x.to_f32())
        .collect();
    let planes: Vec<&[f32]> = (0..16).map(|_| row_w.as_slice()).collect();
    let (lane_w, lane_v) = (lane_plane(&row_w), lane_plane(&row_v));
    let lane_planes: Vec<&simd::LanePlane> = (0..16).map(|_| &lane_w).collect();
    let mut refilled = simd::LanePlane::zeroed(512);
    let row_bytes = newton_bf16::slice::pack(&bf.repeat(4));

    // Weight rows where storage keeps them: folding any number of distinct
    // rows in place must not touch the heap.
    let dram = DramConfig::hbm2e_like();
    let mut storage = Storage::new(&dram);
    for row in 0..64 {
        for bank in 0..dram.banks {
            storage.write_row(bank, row, &row_bytes).expect("in range");
        }
    }
    let mut gang: Vec<&simd::LanePlane> = Vec::with_capacity(dram.banks);

    let (bytes, sink) = alloc_delta(|| {
        let mut acc = 0.0f32;
        let mut acc_bits = 0u16;
        let mut latches = [Bf16::ZERO; 16];
        for _ in 0..1_000 {
            // The row-major fold the benchmark probe times, then the
            // production lane-major kernel (slow-path redo included: it
            // reuses the same stack scratch) and the in-place row stores.
            simd::comp_subchunks16_multi(
                black_box(&mut latches),
                black_box(&planes),
                black_box(&row_v),
                TreePrecision::Wide,
            );
            acc_bits ^= latches[0].to_bits();
            simd::comp_row_set(
                black_box(&mut latches),
                black_box(&lane_planes),
                black_box(&lane_v),
                32,
            );
            acc_bits ^= latches[0].to_bits();
            refilled.write(16, black_box(&bf[..16]));
            refilled.store_le_bytes(black_box(&row_bytes));
        }
        for row in 0..64 {
            gang.clear();
            gang.extend((0..dram.banks).map(|bank| storage.lanes(bank, row).expect("in range")));
            let mut latches = [Bf16::ZERO; 16];
            simd::comp_row_set(
                black_box(&mut latches),
                black_box(&gang),
                black_box(&lane_v),
                32,
            );
            acc += latches[0].to_f32();
        }
        (acc, acc_bits)
    });
    black_box(sink);
    assert_eq!(
        bytes, 0,
        "SIMD kernels and folds of storage rows allocated {bytes} heap bytes"
    );
    println!(
        "bf16/zero-alloc proof: 0 heap bytes across 2000 kernel calls, 2000 plane stores and 64 row-sets of storage rows"
    );
    // Keep the harness aware this 'bench' ran (and give --test a hook).
    c.bench_function("bf16/zero-alloc proof (see assert above)", |b| {
        b.iter(|| {
            alloc_delta(|| {
                let mut latches = [Bf16::ZERO; 16];
                simd::comp_row_set(
                    black_box(&mut latches),
                    black_box(&lane_planes),
                    black_box(&lane_v),
                    32,
                );
                latches
            })
            .0
        })
    });
}

criterion_group!(benches, bench_bf16, bench_bf16_simd, bench_zero_alloc_proof);
criterion_main!(benches);
