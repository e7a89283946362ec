//! Mixed AiM / non-AiM traffic (Sec. III-D): "AiM memory can be used as
//! normal memory and can hold non-AiM data ... non-AiM commands can
//! interleave with AiM commands to the same bank", as long as they never
//! share a DRAM row. This example runs a matrix–vector product while the
//! host reads and writes unrelated rows of the *same banks*, and then
//! drives the same FR-FCFS scheduler on a bare DRAM channel. Both parts
//! use one request type, `newton_dram::controller::Request`: the Newton
//! channel drains its queue through FR-FCFS, closed page, at row-set
//! boundaries.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example mixed_traffic
//! ```

use newton_aim::core::config::NewtonConfig;
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::layout::MatrixMapping;
use newton_aim::core::lut::ActivationKind;
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::core::AimError;
use newton_aim::dram::controller::{FrFcfs, PagePolicy, Request};
use newton_aim::dram::{Channel, DramConfig};
use newton_aim::workloads::{generator, MvShape};

fn main() -> Result<(), AimError> {
    // --- Part 1: host traffic interleaved with an AiM run -------------
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    let shape = MvShape::new(128, 512);
    let matrix = generator::matrix(shape, 3);
    let vector = generator::vector(shape.n, 3);
    let mapping = MatrixMapping::new(
        ScheduleKind::InterleavedFullReuse.layout(),
        shape.m,
        shape.n,
        cfg.dram.banks,
        cfg.row_elems(),
        0,
    )?;
    let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);

    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity)?;
    ch.load_matrix(&mapping, &matrix)?;
    // Non-AiM data lives in the same banks, different rows.
    for bank in 0..4 {
        for write in [Some(vec![bank as u8; 32]), None] {
            ch.enqueue_host_request(Request {
                id: 0,
                bank,
                row: 5000 + bank,
                col: 0,
                write,
                arrival: 0,
            });
        }
    }
    let run = ch.run_mv(&mapping, &schedule, &vector, false)?;
    let responses = ch.take_host_responses();
    println!(
        "AiM run finished in {} cycles with {} host requests interleaved at row-set boundaries",
        run.end_cycle - run.start_cycle,
        responses.len()
    );
    for r in responses.iter().filter(|r| r.request.write.is_none()) {
        assert_eq!(r.data[0] as usize, r.request.bank);
    }
    println!("host read-back data is correct; AiM outputs unaffected");

    // --- Part 2: the standalone FR-FCFS controller --------------------
    let mut channel = Channel::new(DramConfig::hbm2e_like())?;
    let mut mc = FrFcfs::new(PagePolicy::Open);
    // A burst with locality: three rows, interleaved access order.
    let pattern = [(0, 10), (1, 20), (0, 10), (0, 10), (1, 20), (0, 11)];
    for (i, (bank, row)) in pattern.iter().enumerate() {
        mc.enqueue(Request {
            id: i as u64,
            bank: *bank,
            row: *row,
            col: i % 32,
            write: None,
            arrival: 0,
        });
    }
    let done = mc.drain(&mut channel, 0)?;
    println!("\nFR-FCFS drained {} conventional requests:", done.len());
    for c in &done {
        println!(
            "  id {} issued @ {:>4}, data @ {:>4}, {}",
            c.request.id,
            c.issue_cycle,
            c.data_cycle,
            if c.row_hit {
                "row hit"
            } else {
                "row miss/conflict"
            }
        );
    }
    let s = mc.stats();
    println!(
        "row hits {} / misses {} / conflicts {} (FR-FCFS promotes hits over older conflicts)",
        s.row_hits, s.row_misses, s.row_conflicts
    );
    Ok(())
}
