//! Property tests of the observation-share format every rank all-gathers
//! at a controller window boundary: shares round-trip exactly (and so does
//! the observation assembled from them), and corrupt bytes (truncated,
//! extended, bit-flipped or with an absurd table count) never panic.

use dlrm_adaptive::{ObservationShare, ShareError, TableObservation, WindowObservation};
use proptest::prelude::*;

/// Finite values (so `PartialEq` round-trips are meaningful).
fn value() -> impl Strategy<Value = f64> {
    -1e12f64..1e12
}

/// A share of `tables` tables with `candidates` ratios each, drawn from a
/// flat pool of values.
fn share(values: &[f64], counts: &[u64], tables: usize, candidates: usize) -> ObservationShare {
    let mut v = values.iter().copied().cycle();
    let mut c = counts.iter().copied().cycle();
    ObservationShare {
        loss_sum: v.next().unwrap_or(0.0),
        loss_count: c.next().unwrap_or(0),
        wire_bytes: v.next().unwrap_or(0.0).abs(),
        wire_seconds: v.next().unwrap_or(0.0).abs(),
        intra_bytes: v.next().unwrap_or(0.0).abs(),
        intra_seconds: v.next().unwrap_or(0.0).abs(),
        codec_bytes: v.next().unwrap_or(0.0).abs(),
        codec_seconds: v.next().unwrap_or(0.0).abs(),
        tables: (0..tables)
            .map(|t| TableObservation {
                table_id: (c.next().unwrap_or(0) as usize) % 64 + t,
                original_bytes: c.next().unwrap_or(0),
                compressed_bytes: c.next().unwrap_or(0),
                candidate_ratios: (0..candidates).map(|_| v.next().unwrap_or(1.0)).collect(),
            })
            .collect(),
    }
}

fn encoded(share: &ObservationShare) -> Vec<u8> {
    let mut out = Vec::new();
    share.encode_into(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shares_and_observations_roundtrip_exactly(
        values in prop::collection::vec(value(), 1..48),
        counts in prop::collection::vec(any::<u64>(), 1..24),
        tables in prop::collection::vec(0usize..5, 1..5),
        candidates in 0usize..4,
        fallback in 1.0f64..1e12,
    ) {
        let shares: Vec<ObservationShare> = tables
            .iter()
            .enumerate()
            .map(|(rank, &n)| share(&values[rank % values.len()..], &counts, n, candidates))
            .collect();
        let mut decoded = Vec::new();
        for s in &shares {
            let bytes = encoded(s);
            prop_assert_eq!(bytes.len(), ObservationShare::max_encoded_len(s.tables.len(), candidates));
            let back = ObservationShare::decode(&bytes, candidates);
            prop_assert_eq!(back.as_ref(), Ok(s));
            decoded.extend(back);
        }
        let direct = WindowObservation::from_shares(7, shares, fallback);
        let through_bytes = WindowObservation::from_shares(7, decoded, fallback);
        prop_assert_eq!(through_bytes, direct);
    }

    #[test]
    fn truncated_shares_are_rejected(
        values in prop::collection::vec(value(), 1..16),
        counts in prop::collection::vec(any::<u64>(), 1..8),
        tables in 0usize..5,
        candidates in 0usize..4,
        cut in 0usize..1000,
    ) {
        let bytes = encoded(&share(&values, &counts, tables, candidates));
        let keep = cut % bytes.len();
        prop_assert!(ObservationShare::decode(&bytes[..keep], candidates).is_err());
    }

    #[test]
    fn extended_shares_are_rejected(
        values in prop::collection::vec(value(), 1..16),
        counts in prop::collection::vec(any::<u64>(), 1..8),
        tables in 0usize..5,
        candidates in 0usize..4,
        extra in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        let mut bytes = encoded(&share(&values, &counts, tables, candidates));
        bytes.extend_from_slice(&extra);
        prop_assert!(ObservationShare::decode(&bytes, candidates).is_err());
    }

    #[test]
    fn bit_flips_never_panic(
        values in prop::collection::vec(value(), 1..16),
        counts in prop::collection::vec(any::<u64>(), 1..8),
        tables in 0usize..5,
        candidates in 0usize..4,
        at in any::<u64>(),
    ) {
        let mut bytes = encoded(&share(&values, &counts, tables, candidates));
        let bit = (at % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        match ObservationShare::decode(&bytes, candidates) {
            // A flipped table count no longer matches the body.
            Err(e) => prop_assert!((64..72).contains(&(bit / 8)), "{e} at bit {bit}"),
            // Any other flip is a different, well-formed share (the format
            // carries no checksum) that re-encodes to the flipped bytes.
            Ok(back) => {
                prop_assert!(!(64..72).contains(&(bit / 8)));
                prop_assert_eq!(encoded(&back), bytes);
            }
        }
    }

    #[test]
    fn a_corrupt_table_count_sizes_nothing(
        tables in 0usize..5,
        candidates in 0usize..4,
        declared in any::<u64>(),
    ) {
        let mut bytes = encoded(&share(&[1.0], &[3], tables, candidates));
        bytes[64..72].copy_from_slice(&declared.to_le_bytes());
        let body = bytes.len() - 72;
        let result = ObservationShare::decode(&bytes, candidates);
        if declared == tables as u64 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert_eq!(result, Err(ShareError::TableCount { declared, body }));
        }
    }
}

#[test]
fn from_shares_sums_in_rank_order_and_sorts_tables() {
    let table = |id: usize| TableObservation {
        table_id: id,
        original_bytes: 100,
        compressed_bytes: 25,
        candidate_ratios: vec![4.0],
    };
    let a = ObservationShare {
        loss_sum: 1.5,
        loss_count: 2,
        wire_bytes: 300.0,
        wire_seconds: 2.0,
        codec_bytes: 50.0,
        codec_seconds: 0.5,
        tables: vec![table(3), table(1)],
        ..ObservationShare::default()
    };
    let b = ObservationShare {
        loss_sum: 0.5,
        loss_count: 2,
        wire_bytes: 100.0,
        wire_seconds: 2.0,
        intra_bytes: 90.0,
        intra_seconds: 3.0,
        tables: vec![table(2)],
        ..ObservationShare::default()
    };
    let obs = WindowObservation::from_shares(12, [a, b], 9.0);
    assert_eq!(obs.iteration, 12);
    assert_eq!(obs.effective_bandwidth, 100.0);
    assert_eq!(obs.intra_bandwidth, Some(30.0));
    assert_eq!(obs.mean_loss, 0.5);
    assert_eq!(obs.measured_compress_throughput, 100.0);
    let ids: Vec<usize> = obs.tables.iter().map(|t| t.table_id).collect();
    assert_eq!(ids, [1, 2, 3]);

    // Nothing charged: the fallback bandwidth, no intra tier, no loss, no
    // calibration.
    let empty = WindowObservation::from_shares(3, [ObservationShare::default()], 9.0);
    assert_eq!(empty.effective_bandwidth, 9.0);
    assert_eq!(empty.intra_bandwidth, None);
    assert_eq!(empty.mean_loss, 0.0);
    assert_eq!(empty.measured_compress_throughput, 0.0);
}
