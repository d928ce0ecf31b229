//! Snapshot codec for [`Table`] (see `pass_common::snapshot`).
//!
//! A table is encoded column-for-column with f64 bit patterns, so a decoded
//! table is bit-identical to the saved one. Decoding re-enters
//! [`Table::new`], so every schema invariant (column arity, equal lengths)
//! is re-validated on the way in; a CRC-valid but drifted payload surfaces
//! as `SnapshotError::SpecMismatch`, never as a malformed table.

use pass_common::snapshot::{encode_slice, Codec, Cursor};
use pass_common::Result;

use crate::table::Table;

/// `dims`, then the column names, the value column and each predicate
/// column as sequences.
impl Codec for Table {
    const MIN_BYTES: usize = 24;

    fn encode(&self, out: &mut Vec<u8>) {
        self.dims().encode(out);
        encode_slice(self.names(), out);
        encode_slice(self.values(), out);
        for d in 0..self.dims() {
            encode_slice(self.predicate_column(d), out);
        }
    }

    fn decode(c: &mut Cursor<'_>) -> Result<Self> {
        let dims = c.count(8)?;
        let names = c.read()?;
        let values = c.read()?;
        let predicates = (0..dims).map(|_| c.read()).collect::<Result<_>>()?;
        Table::new(values, predicates, names).map_err(|e| c.drift(format_args!("table: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_common::snapshot::SnapshotError;

    #[test]
    fn tables_round_trip_bit_exactly() {
        let t = crate::datasets::taxi(500, 3);
        let mut payload = Vec::new();
        t.encode(&mut payload);
        let mut c = Cursor::new(&payload, "table");
        let back: Table = c.read().unwrap();
        c.done().unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.names(), t.names());
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.values()), bits(t.values()));
        for d in 0..t.dims() {
            assert_eq!(bits(back.predicate_column(d)), bits(t.predicate_column(d)));
        }
    }

    #[test]
    fn special_floats_survive() {
        let t = Table::one_dim(
            vec![0.0, -0.0, f64::INFINITY],
            vec![f64::NAN, 1.0, f64::from_bits(0x7FF8_0000_0000_1234)],
        )
        .unwrap();
        let mut payload = Vec::new();
        t.encode(&mut payload);
        let back: Table = Cursor::new(&payload, "table").read().unwrap();
        assert_eq!(back.values()[2].to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(back.predicate_column(0)[1].to_bits(), (-0.0f64).to_bits());
        assert!(back.values()[0].is_nan());
    }

    #[test]
    fn drifted_payload_is_a_spec_mismatch() {
        // A payload claiming two names but carrying one predicate column of
        // the wrong length fails Table::new's validation.
        let mut payload = Vec::new();
        1usize.encode(&mut payload);
        vec!["value".to_string(), "predicate".to_string()].encode(&mut payload);
        vec![1.0, 2.0].encode(&mut payload);
        vec![1.0].encode(&mut payload); // length mismatch
        assert!(matches!(
            Cursor::new(&payload, "table").read::<Table>().err(),
            Some(pass_common::PassError::Snapshot(
                SnapshotError::SpecMismatch(_)
            ))
        ));
    }
}
