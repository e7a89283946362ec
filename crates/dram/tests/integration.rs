//! Crate-level integration tests: the channel, FR-FCFS controller,
//! streaming reader, INI loader and audit working together.

use newton_dram::controller::{FrFcfs, PagePolicy, Request};
use newton_dram::stream::StreamReader;
use newton_dram::{Channel, DramConfig};

#[test]
fn controller_then_stream_share_one_channel_legally() {
    // A conventional request burst followed by an Ideal-Non-PIM-style
    // stream on the same channel, all audited.
    let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
    ch.enable_audit();

    let mut mc = FrFcfs::new(PagePolicy::Closed);
    for i in 0..32u64 {
        mc.enqueue(Request {
            id: i,
            bank: (i % 8) as usize,
            row: 100 + (i / 8) as usize,
            col: (i % 32) as usize,
            write: if i % 4 == 0 {
                Some(vec![i as u8; 32])
            } else {
                None
            },
            arrival: 0,
        });
    }
    let done = mc.drain(&mut ch, 0).unwrap();
    assert_eq!(done.len(), 32);
    let t_end = done.iter().map(|c| c.data_cycle).max().unwrap();

    let rows: Vec<(usize, usize)> = (0..16).map(|i| (i % 16, i / 16)).collect();
    let mut reader = StreamReader::new(&mut ch);
    let out = reader.read_rows(t_end, &rows, |_, _, _| {}).unwrap();
    assert!(out.end_cycle > t_end);

    let t = *ch.timing();
    assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
}

#[test]
fn written_data_streams_back_out_bit_exact() {
    let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
    // Write three full rows through the functional path.
    for bank in 0..3 {
        let row: Vec<u8> = (0..1024).map(|i| (bank * 31 + i % 251) as u8).collect();
        ch.storage_mut().write_row(bank, 0, &row).unwrap();
    }
    let mut got = vec![Vec::new(); 3];
    let rows = [(0usize, 0usize), (1, 0), (2, 0)];
    let mut reader = StreamReader::new(&mut ch);
    reader
        .read_rows(0, &rows, |ri, _, data| got[ri].extend_from_slice(data))
        .unwrap();
    for (bank, data) in got.iter().enumerate() {
        let expect: Vec<u8> = (0..1024).map(|i| (bank * 31 + i % 251) as u8).collect();
        assert_eq!(data, &expect);
    }
}

#[test]
fn a_custom_device_feeds_the_whole_stack() {
    // 4 banks of 128 rows of 16 columns, refreshing every 2 us.
    let mut cfg = DramConfig::hbm2e_like();
    cfg.banks = 4;
    cfg.rows_per_bank = 128;
    cfg.cols_per_row = 16;
    cfg.timing.t_refi_ns = 2000.0;
    cfg.timing.t_rfc_ns = 200.0;
    cfg.validate().unwrap();
    assert_eq!(cfg.row_bytes(), 512);
    let mut ch = Channel::new(cfg).unwrap();
    ch.enable_audit();
    let mut mc = FrFcfs::new(PagePolicy::Open);
    // Enough misses to force refreshes under the shortened tREFI.
    for i in 0..400u64 {
        mc.enqueue(Request {
            id: i,
            bank: (i % 4) as usize,
            row: (i / 4) as usize % 128,
            col: 0,
            write: None,
            arrival: 0,
        });
    }
    let done = mc.drain(&mut ch, 0).unwrap();
    assert_eq!(done.len(), 400);
    assert!(mc.stats().refreshes >= 1);
    let t = *ch.timing();
    assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
}

#[test]
fn open_page_policy_wins_on_locality_and_loses_on_conflicts() {
    let total_time = |policy: PagePolicy, rows: &[usize]| {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        ch.disable_refresh();
        let mut mc = FrFcfs::new(policy);
        for (i, &row) in rows.iter().enumerate() {
            mc.enqueue(Request {
                id: i as u64,
                bank: 0,
                row,
                col: i % 32,
                write: None,
                arrival: 0,
            });
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        done.iter().map(|c| c.data_cycle).max().unwrap()
    };
    // Pure locality: one row, many columns — open page streams, closed
    // page pays tRC per access.
    let local: Vec<usize> = vec![7; 16];
    assert!(total_time(PagePolicy::Open, &local) < total_time(PagePolicy::Closed, &local));
    // An alternating two-row pattern *would* be pure conflicts in
    // arrival order, but FR-FCFS reorders it into two row-hit streaks —
    // the scheduler's whole point. The cost ends up close to the pure
    // locality pattern rather than ~16x tRC.
    let conflict: Vec<usize> = (0..16).map(|i| if i % 2 == 0 { 1 } else { 2 }).collect();
    let local_t = total_time(PagePolicy::Open, &local);
    let conflict_t = total_time(PagePolicy::Open, &conflict);
    assert!(
        conflict_t < 2 * local_t,
        "FR-FCFS should rescue the alternating pattern: {conflict_t} vs {local_t}"
    );

    // Verify the rescue is really reordering: hit statistics show one
    // streak per row, not sixteen conflicts.
    let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
    ch.disable_refresh();
    let mut mc = FrFcfs::new(PagePolicy::Open);
    for (i, &row) in conflict.iter().enumerate() {
        mc.enqueue(Request {
            id: i as u64,
            bank: 0,
            row,
            col: i % 32,
            write: None,
            arrival: 0,
        });
    }
    mc.drain(&mut ch, 0).unwrap();
    assert!(mc.stats().row_hits >= 13, "{:?}", mc.stats());
    assert!(mc.stats().row_conflicts <= 2, "{:?}", mc.stats());
}

#[test]
fn audit_catches_a_deliberately_broken_stream() {
    // Force-feed the channel a legal stream, then corrupt the audit log
    // with an impossible event and prove validation notices — guards
    // against the audit silently passing everything.
    use newton_dram::audit::{Audit, AuditEvent};
    let t = DramConfig::hbm2e_like().timing.to_cycles().unwrap();
    let mut audit = Audit::new();
    audit.record(AuditEvent::Act {
        bank: 0,
        row: 0,
        cycle: 0,
    });
    audit.record(AuditEvent::Act {
        bank: 0,
        row: 1,
        cycle: 1,
    }); // ACT on open + tRC
    let violations = audit.validate(&t);
    assert!(violations.iter().any(|v| v.constraint == "ACT-on-open"));
    assert!(violations.iter().any(|v| v.constraint == "tRC"));
}
