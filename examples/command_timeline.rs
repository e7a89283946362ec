//! Renders the paper's Fig. 7 as an ASCII Gantt chart: one DRAM row
//! across all banks, under full Newton and under the simple-command
//! expansion (complex commands off), to make the command-bandwidth
//! argument visible.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example command_timeline
//! ```

use newton_aim::core::config::{NewtonConfig, OptLevel};
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::layout::MatrixMapping;
use newton_aim::core::lut::ActivationKind;
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::core::timeline::render_gantt;
use newton_aim::core::AimError;
use newton_aim::workloads::{generator, MvShape};

fn trace_one_row(cfg: &NewtonConfig) -> Result<String, AimError> {
    let shape = MvShape::new(16, 512);
    let matrix = generator::matrix(shape, 7);
    let vector = generator::vector(shape.n, 7);
    let kind = if cfg.opts.interleaved_reuse {
        ScheduleKind::InterleavedFullReuse
    } else {
        ScheduleKind::NoReuse
    };
    let mapping = MatrixMapping::new(
        kind.layout(),
        shape.m,
        shape.n,
        cfg.dram.banks,
        cfg.row_elems(),
        0,
    )?;
    let schedule = Schedule::build(kind, &mapping);
    let mut ch = NewtonChannel::new(cfg, ActivationKind::Identity)?;
    ch.enable_trace();
    ch.load_matrix(&mapping, &matrix)?;
    ch.run_mv(&mapping, &schedule, &vector, false)?;
    Ok(render_gantt(&ch.trace(), ch.channel().timing().t_cmd, 120))
}

fn main() -> Result<(), AimError> {
    let mut full = NewtonConfig::paper_default();
    full.channels = 1;
    println!("Fig. 7 — full Newton (complex, ganged commands):");
    println!("{}", trace_one_row(&full)?);
    println!("legend: W=GWRITE, 0-3=G_ACT cluster, C=COMP, R=READRES, P=PRE_ALL, F=REF\n");

    let mut simple = NewtonConfig::at_level(OptLevel::Gang);
    simple.channels = 1;
    println!("Same row with complex commands OFF (each COMP = broadcast b / read r / mac m):");
    println!("{}", trace_one_row(&simple)?);
    println!(
        "the column-command bus is now 3x busier for the same data — the paper's\n\
         complex-command argument (Sec. III-D) made visible"
    );
    Ok(())
}
