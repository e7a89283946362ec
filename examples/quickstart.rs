//! Quickstart: simulate one matrix–vector product on a Newton AiM device
//! and inspect what happened — cycle-accurate timing, real bf16 numbers,
//! and the AiM command counts of Table I.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use newton_aim::core::config::NewtonConfig;
use newton_aim::core::system::NewtonSystem;
use newton_aim::core::AimError;
use newton_aim::workloads::{generator, reference, MvShape};

fn main() -> Result<(), AimError> {
    // The paper's system: 24 HBM2E-like channels, 16 banks each, 16
    // bf16 multipliers per bank, all interface optimizations on.
    let cfg = NewtonConfig::paper_default();
    println!(
        "Newton system: {} channels x {} banks, {} multipliers/bank",
        cfg.channels,
        cfg.dram.banks,
        cfg.subchunk_elems()
    );

    // A BERT-attention-sized layer: 1024 x 1024 bf16 weights.
    let shape = MvShape::new(1024, 1024);
    let matrix = generator::matrix(shape, 42);
    let vector = generator::vector(shape.n, 42);
    println!(
        "layer: {shape} ({:.1} MB of weights)",
        shape.matrix_bytes() as f64 / 1e6
    );

    // Run it. The simulator issues every GWRITE/G_ACT/COMP/READRES
    // command through the DRAM timing engine and performs the real bf16
    // arithmetic on the bytes the banks return.
    let mut system = NewtonSystem::new(cfg)?;
    let run = system.run_mv(&matrix, shape.m, shape.n, &vector)?;

    println!("\nsimulated execution:");
    println!(
        "  time            : {:.0} ns ({} cycles)",
        run.elapsed_ns, run.cycles
    );
    println!("  row-sets        : {}", run.stats.row_sets);
    println!("  GWRITE commands : {}", run.stats.gwrite_commands);
    println!("  COMP commands   : {}", run.stats.compute_commands);
    println!("  READRES commands: {}", run.stats.readres_commands);
    println!("  activations     : {}", run.stats.activate_commands);
    println!("  refreshes       : {}", run.stats.refreshes);

    // Verify the device computed the right numbers.
    let expect = reference::mv_f64(&matrix, shape.m, shape.n, &vector);
    let max_err = run
        .output
        .iter()
        .zip(&expect)
        .map(|(g, w)| (*g as f64 - w).abs())
        .fold(0.0f64, f64::max);
    println!("\nnumerics: max |simulated - f64 reference| = {max_err:.3e}");
    assert!(max_err < 0.1, "bf16 accumulation error out of bounds");

    // Effective bandwidth: Newton consumes internal bandwidth, so it beats
    // the external-bus ceiling.
    let bytes = shape.matrix_bytes() as f64;
    println!(
        "effective matrix bandwidth: {:.0} GB/s (external ceiling of this DRAM: {:.0} GB/s)",
        bytes / run.elapsed_ns,
        8.0 * 24.0
    );
    Ok(())
}
