//! Property-based tests of the DRAM substrate: random request streams
//! through the FR-FCFS scheduler and random row streams through the
//! reader must always complete, preserve data, and pass the independent
//! timing audit.

use newton_dram::controller::{FrFcfs, PagePolicy, Request};
use newton_dram::stream::StreamReader;
use newton_dram::{Channel, DramConfig};
use proptest::prelude::*;

/// A compact random request description.
#[derive(Debug, Clone)]
struct ReqDesc {
    bank: usize,
    row: usize,
    col: usize,
    write: bool,
    arrival: u64,
}

fn req_strategy(banks: usize) -> impl Strategy<Value = ReqDesc> {
    (0..banks, 0usize..64, 0usize..32, any::<bool>(), 0u64..2000).prop_map(
        |(bank, row, col, write, arrival)| ReqDesc {
            bank,
            row,
            col,
            write,
            arrival,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random request stream drains completely, read-your-writes
    /// holds per (bank,row,col), and the audit finds no violations.
    #[test]
    fn frfcfs_fuzz_drains_legally(
        reqs in prop::collection::vec(req_strategy(16), 1..60),
        closed in any::<bool>(),
    ) {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        ch.enable_audit();
        let policy = if closed { PagePolicy::Closed } else { PagePolicy::Open };
        let mut mc = FrFcfs::new(policy);
        // (Read-data vs write-data checking lives in the dedicated
        // read-your-write property below; FR-FCFS reordering makes it
        // ill-defined for arbitrary interleavings.)
        for (i, r) in reqs.iter().enumerate() {
            let fill = (i % 251) as u8 + 1;
            mc.enqueue(Request {
                id: i as u64,
                bank: r.bank,
                row: r.row,
                col: r.col,
                write: r.write.then(|| vec![fill; 32]),
                arrival: r.arrival,
            });
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        prop_assert_eq!(done.len(), reqs.len(), "every request completes exactly once");
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), reqs.len(), "no duplicate completions");

        // Hit/miss/conflict classification covers every request.
        let s = mc.stats();
        prop_assert_eq!(
            s.row_hits + s.row_misses + s.row_conflicts,
            reqs.len() as u64
        );

        let t = *ch.timing();
        let violations = ch.audit().unwrap().validate(&t);
        prop_assert!(violations.is_empty(), "{violations:?}");

        // Residency attribution: every cycle of every bank lands in
        // exactly one class, so per-bank totals equal elapsed time.
        let end = done.iter().map(|c| c.data_cycle).max().unwrap() + t.t_rfc;
        let summary = ch.summary(end);
        for (bank, r) in summary.residency.iter().enumerate() {
            prop_assert_eq!(r.total(), end, "bank {} residency != elapsed", bank);
        }
    }

    /// Reads of locations written exactly once (and never re-written)
    /// return the written bytes even under scheduler reordering, as long
    /// as the read arrives after the write completes.
    #[test]
    fn frfcfs_read_your_write_single_location(
        bank in 0usize..16,
        row in 0usize..64,
        col in 0usize..32,
        fill in 1u8..255,
    ) {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        mc.enqueue(Request { id: 0, bank, row, col, write: Some(vec![fill; 32]), arrival: 0 });
        let w = mc.drain(&mut ch, 0).unwrap();
        let after = w[0].data_cycle;
        mc.enqueue(Request { id: 1, bank, row, col, write: None, arrival: after });
        let r = mc.drain(&mut ch, after).unwrap();
        prop_assert_eq!(&r[0].data, &vec![fill; 32]);
    }

    /// Random row lists stream to completion with a clean audit on
    /// devices with random bank counts, column cadence and tFAW.
    #[test]
    fn stream_fuzz_on_randomized_devices(
        banks in prop::sample::select(vec![4usize, 8, 16]),
        tccd in 2u32..9,
        tfaw in 20u32..41,
        n_rows in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut cfg = DramConfig::hbm2e_like();
        cfg.banks = banks;
        cfg.rows_per_bank = 256;
        cfg.timing.t_ccd_ns = f64::from(tccd);
        cfg.timing.t_cmd_ns = f64::from(tccd);
        cfg.timing.t_faw_ns = f64::from(tfaw);
        cfg.validate().unwrap();
        let mut ch = Channel::new(cfg.clone()).unwrap();
        ch.enable_audit();
        // Pseudo-random but reproducible row list.
        let rows: Vec<(usize, usize)> = (0..n_rows)
            .map(|i| {
                let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                ((x >> 16) as usize % banks, (x >> 32) as usize % 256)
            })
            .collect();
        let mut reader = StreamReader::new(&mut ch);
        let mut columns = vec![0usize; n_rows];
        let out = reader.read_rows(0, &rows, |row, _, _| columns[row] += 1).unwrap();
        prop_assert!(columns.iter().all(|&c| c == cfg.cols_per_row), "{columns:?}");
        let t = *ch.timing();
        let violations = ch.audit().unwrap().validate(&t);
        prop_assert!(violations.is_empty(), "{violations:?}");

        // The residency invariant must hold on arbitrary devices too.
        let end = out.end_cycle + t.t_rfc;
        let summary = ch.summary(end);
        for (bank, r) in summary.residency.iter().enumerate() {
            prop_assert_eq!(r.total(), end, "bank {} residency != elapsed", bank);
        }
    }
}
