//! The random stream every seeded golden depends on: the vendored
//! `rand` (see the root `Cargo.toml`), whose `StdRng` is SplitMix64,
//! whose integer `random_range` takes a modulo and whose `f64` draws
//! are 53-bit units. A change to it, such as building against the
//! upstream crate, fails here by name before it moves the goldens.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

#[test]
fn std_rng_first_outputs_are_pinned() {
    for (seed, expect) in [
        (0, [0x10e54de8bbf96957, 0x21a679fa866be5f0]),
        (1, [0x6f9038f8dda05860, 0x50fe8b2970e6a26b]),
        (0x09E2, [0xf6f1a1898ac88728, 0xda2a12a592aee6eb]),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!([rng.next_u64(), rng.next_u64()], expect, "seed {seed:#x}");
    }
}

#[test]
fn range_and_unit_draws_are_pinned() {
    let mut rng = StdRng::seed_from_u64(2008);
    let ints: [u64; 4] = std::array::from_fn(|_| rng.random_range(0..10u64));
    assert_eq!(ints, [8, 7, 6, 8]);
    let inclusive: [usize; 3] = std::array::from_fn(|_| rng.random_range(2..=40usize));
    assert_eq!(inclusive, [35, 8, 18]);
    let signed: [f64; 2] = std::array::from_fn(|_| rng.random_range(-1.0..=1.0));
    assert_eq!(signed, [-0.9187922081893398, 0.9440188171990316]);
    let units: [f64; 2] = std::array::from_fn(|_| rng.random::<f64>());
    assert_eq!(units, [0.7776947560167567, 0.7046546585832038]);
}
