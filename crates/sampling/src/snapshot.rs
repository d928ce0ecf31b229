//! Snapshot codec for [`Sample`] (see `pass_common::snapshot`).
//!
//! The `sorted_1d` kernel fast-path flag is serialized explicitly rather
//! than recomputed: mutators clear it conservatively (even when a mutation
//! happens to preserve order), so a mutated-then-saved sample must reload
//! with the flag it had at save time — recomputing from the rows could
//! silently move the sample onto a different (sorted) kernel path and
//! break bit-identity with the originating engine.

use pass_common::snapshot::{Codec, Cursor};
use pass_common::Result;
use pass_table::Table;

use crate::sample::Sample;

/// Population, the sorted flag, then the rows.
impl Codec for Sample {
    const MIN_BYTES: usize = 9 + Table::MIN_BYTES;

    fn encode(&self, out: &mut Vec<u8>) {
        self.population().encode(out);
        self.sorted_1d().encode(out);
        self.rows().encode(out);
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let population = c.read()?;
        let sorted_1d = c.read()?;
        Sample::from_parts(c.read()?, population, sorted_1d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::rng::rng_from_seed;
    use pass_table::datasets::uniform;

    #[test]
    fn samples_round_trip_with_population_and_flag() {
        let t = uniform(1_000, 5);
        let mut rng = rng_from_seed(6);
        let s = Sample::uniform(&t, 64, &mut rng).unwrap();
        assert!(s.sorted_1d());
        let mut payload = Vec::new();
        s.encode(&mut payload);
        let mut c = Cursor::new(&payload, "sample");
        let back: Sample = c.read().unwrap();
        c.done().unwrap();
        assert_eq!(back.k(), s.k());
        assert_eq!(back.population(), s.population());
        assert!(back.sorted_1d());
        assert_eq!(back.rows().values(), s.rows().values());
    }

    #[test]
    fn cleared_sorted_flag_is_preserved_not_recomputed() {
        let t = uniform(500, 7);
        let mut rng = rng_from_seed(8);
        let mut s = Sample::uniform(&t, 32, &mut rng).unwrap();
        // An order-preserving overwrite still clears the flag; the decoded
        // sample must stay on the same (unsorted) kernel path.
        let preds: Vec<f64> = vec![s.rows().predicate(0, 0)];
        let value = s.rows().value(0);
        s.replace_row(0, value, &preds);
        assert!(!s.sorted_1d());
        let mut payload = Vec::new();
        s.encode(&mut payload);
        let back: Sample = Cursor::new(&payload, "sample").read().unwrap();
        assert!(!back.sorted_1d());
    }
}
