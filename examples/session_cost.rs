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
//! The figures depend on the host; nothing here asserts on them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use giantsan::baselines::asan::{codes as asan_codes, Asan};
use giantsan::core::{encoding, GiantSan};
use giantsan::runtime::{NullSanitizer, RuntimeConfig, World};
use giantsan::shadow::ShadowMemory;

/// Timed samples per cell.
const SAMPLES: usize = 201;
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
}
