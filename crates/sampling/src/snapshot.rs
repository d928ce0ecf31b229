//! Snapshot codec for [`Sample`] (see `pass_common::snapshot`).
//!
//! The `sorted_1d` kernel fast-path flag is serialized explicitly rather
//! than recomputed. The mutators keep a sorted sample in key order, so a
//! sorted sample saves `true`; but snapshots written before they did hold
//! updated 1-D samples whose flag was cleared, and such a sample must
//! reload with the flag it had at save time — recomputing from the rows
//! could move it onto the sorted kernel path and the ordered mutators,
//! and its stream would no longer continue as it did when saved.

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
        let sorted = Sample::uniform(&t, 32, &mut rng).unwrap();
        assert!(sorted.sorted_1d());
        // Rows in key order under a stored `false` flag — what a snapshot
        // saved after updates, before the mutators kept key order, holds:
        // the decoded sample must stay on the unsorted kernel path.
        let s = Sample::from_parts(sorted.rows().clone(), sorted.population(), false).unwrap();
        assert!(!s.sorted_1d());
        let mut payload = Vec::new();
        s.encode(&mut payload);
        let back: Sample = Cursor::new(&payload, "sample").read().unwrap();
        assert!(!back.sorted_1d());
        assert_eq!(back.rows().values(), sorted.rows().values());
    }
}
