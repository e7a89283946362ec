//! Observability walkthrough: runs a small GEMV on one Newton channel,
//! writes a Perfetto-loadable Chrome trace and a versioned metrics
//! snapshot, then prints the top-3 cycle sinks from the per-bank
//! residency attribution.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example trace_export
//! ```
//!
//! Then open `target/trace/gemv.trace.json` at <https://ui.perfetto.dev>
//! (or `chrome://tracing`) to see one track per command bus and per bank.

use std::fs;

use newton_aim::core::config::NewtonConfig;
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::export::export_chrome_trace;
use newton_aim::core::layout::MatrixMapping;
use newton_aim::core::lut::ActivationKind;
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::trace::{BankClass, MetricsSnapshot, Residency};
use newton_aim::workloads::{generator, MvShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    let (m, n) = (64, 2048);
    let matrix = generator::matrix(MvShape::new(m, n), 42);
    let vector = generator::vector(n, 42);

    // Run the GEMV with command tracing on.
    let mapping = MatrixMapping::new(
        ScheduleKind::InterleavedFullReuse.layout(),
        m,
        n,
        cfg.dram.banks,
        cfg.row_elems(),
        0,
    )?;
    let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity)?;
    ch.enable_trace();
    ch.load_matrix(&mapping, &matrix)?;
    let run = ch.run_mv(&mapping, &schedule, &vector, false)?;
    let summary = ch.channel().summary(run.end_cycle);
    println!(
        "{m}x{n} GEMV: {} cycles, {} commands traced",
        run.end_cycle - run.start_cycle,
        ch.trace().entries().count()
    );

    let out_dir = std::path::Path::new("target/trace");
    fs::create_dir_all(out_dir)?;

    // 1. Perfetto / chrome://tracing view of the command stream.
    let chrome = export_chrome_trace(&ch.trace(), ch.channel().timing(), cfg.dram.banks);
    let trace_path = out_dir.join("gemv.trace.json");
    fs::write(&trace_path, &chrome)?;
    println!(
        "Perfetto trace:   {} ({} bytes)",
        trace_path.display(),
        chrome.len()
    );

    // 2. Versioned metrics snapshot (same schema `reproduce` writes).
    let mut snap = MetricsSnapshot::new("example_gemv");
    snap.count("cycles", run.end_cycle - run.start_cycle)
        .count("commands", ch.trace().entries().count() as u64)
        .scalar("bank_utilization", summary.bank_utilization())
        .scalar(
            "external_bandwidth_bytes_per_ns",
            summary.external_bandwidth(),
        )
        .count("queue_latency_samples", summary.queue_latency.count());
    let snap_path = out_dir.join("example_gemv.json");
    fs::write(&snap_path, snap.render())?;
    println!("metrics snapshot: {}", snap_path.display());

    // 3. Where did the cycles go? Aggregate per-bank residency and rank.
    let mut whole = Residency::default();
    for r in &summary.residency {
        whole.merge(r);
    }
    let mut sinks: Vec<(BankClass, u64)> =
        BankClass::ALL.iter().map(|&c| (c, whole.get(c))).collect();
    sinks.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
    println!(
        "top cycle sinks (all {} banks, bank-cycles):",
        summary.residency.len()
    );
    for (class, cycles) in sinks.iter().take(3) {
        println!(
            "  {:<12} {:>12} ({:.1}%)",
            class.name(),
            cycles,
            100.0 * *cycles as f64 / whole.total() as f64
        );
    }
    Ok(())
}
