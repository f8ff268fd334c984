//! What a session costs before its program runs: building and dropping an
//! empty sanitizer, and the shadow alone.
//!
//! ```sh
//! cargo run --release --example session_cost
//! ```
//!
//! Prints the median wall time to build and drop one empty session per tool
//! at `RuntimeConfig::default()` and `RuntimeConfig::small()`, with the
//! tools interleaved the way a benchmark alternates them, then the same for
//! a GiantSan-filled and an ASan-filled shadow over a default world's space.
//! Then it times what a session's writes cost its drop, the reset of its
//! parked space: a world the size of wallbench's `churn` after one 8-byte
//! store every 1.3 KiB over 64 MiB (sparse), and after one 64 MiB `fill`
//! (dense). Last, the cost per store of 20M random 8-byte stores into
//! 1 MiB and into 64 MiB of a default world's space, the loops that price
//! the store path's dirty marking. The figures depend on the host; nothing here asserts on them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use giantsan::baselines::asan::{codes as asan_codes, Asan};
use giantsan::core::{encoding, GiantSan};
use giantsan::runtime::{NullSanitizer, RuntimeConfig, World};
use giantsan::shadow::{AddressSpace, ShadowMemory};

/// Timed samples per cell.
const SAMPLES: usize = 201;
/// Timed samples per drop cell: each dense one writes 64 MiB first.
const DROP_SAMPLES: usize = 21;
/// Bytes a drop cell writes over, and the sparse cell's store stride.
const SPAN: u64 = 64 << 20;
const STRIDE: u64 = 1328;
/// Stores per timed store loop, and loops.
const STORES: u64 = 20_000_000;
const STORE_LOOPS: usize = 5;
/// Untimed rounds first, so every buffer a thread keeps is already in place.
const WARMUP: usize = 5;

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

fn time(f: &mut dyn FnMut()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Median build-plus-drop time of each closure, sampled round-robin.
fn medians(cells: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(SAMPLES); cells.len()];
    for round in 0..WARMUP + SAMPLES {
        for (cell, out) in cells.iter_mut().zip(&mut samples) {
            let d = time(&mut **cell);
            if round >= WARMUP {
                out.push(d);
            }
        }
    }
    samples.into_iter().map(median_us).collect()
}

/// Median time, in ms, to drop a `churn`-sized world after `write` ran on
/// its space; the writes themselves are not timed.
fn median_drop_ms(write: fn(&mut AddressSpace)) -> f64 {
    let churn = RuntimeConfig::builder().heap_size(128 << 20).build();
    let samples = (0..WARMUP + DROP_SAMPLES)
        .map(|_| {
            let mut world = Some(World::new(churn.clone()));
            write(world.as_mut().expect("built").space_mut());
            time(&mut || drop(black_box(world.take())))
        })
        .skip(WARMUP)
        .collect();
    median_us(samples) / 1e3
}

/// Median ns per store of [`STORES`] 8-byte stores at random aligned
/// offsets of the first `window` bytes (a power of two) of a default
/// world's space.
fn store_ns(window: u64) -> f64 {
    let mut world = World::new(RuntimeConfig::default());
    let space = world.space_mut();
    let lo = space.lo();
    let mask = window / 8 - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let samples = (0..STORE_LOOPS)
        .map(|_| {
            time(&mut || {
                for _ in 0..STORES {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    space.write_u64(lo + (x & mask) * 8, x).unwrap();
                }
            })
        })
        .collect();
    median_us(samples) * 1e3 / STORES as f64
}

fn main() {
    println!(
        "build + drop of one empty session, median of {SAMPLES} (us) [kernel={}]",
        giantsan::shadow::kernel::active().name()
    );
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>14} {:>10}",
        "config", "native", "giantsan", "asan", "giantsan/nat", "asan/nat"
    );
    for (name, cfg) in [
        ("default", RuntimeConfig::default()),
        ("small", RuntimeConfig::small()),
    ] {
        let m = medians(&mut [
            &mut || drop(black_box(NullSanitizer::new(cfg.clone()))),
            &mut || drop(black_box(GiantSan::new(cfg.clone()))),
            &mut || drop(black_box(Asan::new(cfg.clone()))),
        ]);
        let (native, giantsan, asan) = (m[0], m[1], m[2]);
        println!(
            "{name:<9} {native:>9.1} {giantsan:>9.1} {asan:>9.1} {:>14.2} {:>10.2}",
            giantsan / native,
            asan / native
        );
    }

    let world = World::new(RuntimeConfig::default());
    let space = world.space();
    let m = medians(&mut [
        &mut || drop(black_box(ShadowMemory::new(space, encoding::UNALLOCATED))),
        &mut || drop(black_box(ShadowMemory::new(space, asan_codes::UNALLOCATED))),
    ]);
    println!(
        "shadow alone over a default world ({} segments): giantsan fill {:.1} us, asan fill {:.1} us",
        space.size() / giantsan::shadow::SEGMENT_SIZE,
        m[0],
        m[1]
    );

    let sparse = median_drop_ms(|space| {
        let lo = space.lo();
        for at in (0..SPAN - 8).step_by(STRIDE as usize) {
            space.write_u64(lo + at, at | 1).unwrap();
        }
    });
    let dense = median_drop_ms(|space| {
        let lo = space.lo();
        space.fill(lo, 0xa5, SPAN).unwrap();
    });
    println!(
        "drop of a churn-sized world, median of {DROP_SAMPLES}: sparse (8 B per {STRIDE} B over 64 MiB) {sparse:.2} ms, dense (64 MiB fill) {dense:.2} ms"
    );
    // 1 MiB stays in cache, so the dirty marking shows; over 64 MiB the
    // cache misses hide it.
    for (name, window) in [("1 MiB", 1 << 20), ("64 MiB", SPAN)] {
        println!(
            "{STORES} random 8-byte stores over {name} of a default world, median of {STORE_LOOPS}: {:.2} ns per store",
            store_ns(window)
        );
    }
}
