//! Property tests: the pool's output is the serial map's output for
//! arbitrary inputs and thread counts — the determinism
//! contract the landmark pipeline builds on.

use proptest::prelude::*;

proptest! {
    /// `par_map` equals serial `map` whatever the width.
    #[test]
    fn par_map_equals_serial_map(
        items in prop::collection::vec(any::<i64>(), 0..300),
        width in 1usize..12,
    ) {
        let serial: Vec<i64> = items.iter().map(|&x| x.wrapping_mul(31).wrapping_add(7)).collect();
        let par = fui_exec::par_map_with(width, &items, |&x| x.wrapping_mul(31).wrapping_add(7));
        prop_assert_eq!(par, serial);
    }

    /// Index-ordered float reduction is bit-stable across widths: the
    /// caller's fold over the result vector reproduces the serial fold
    /// exactly, which is what makes σ merges thread-count invariant.
    #[test]
    fn float_fold_is_bit_stable(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..200),
        width in 2usize..10,
    ) {
        let serial = values
            .iter()
            .map(|&x| (x * 1.0000001).sqrt().abs() + x)
            .fold(0.0f64, |a, b| a + b);
        let par = fui_exec::par_map_with(width, &values, |&x| (x * 1.0000001).sqrt().abs() + x)
            .into_iter()
            .fold(0.0f64, |a, b| a + b);
        prop_assert_eq!(serial.to_bits(), par.to_bits());
    }
}
