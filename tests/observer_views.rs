//! The views of a watched channel's command log, pinned by digest.
//!
//! A watched channel keeps one log of the commands it issues. The AiM
//! command trace (its text, the Fig. 7 Gantt chart, the Perfetto export)
//! and the timing audit (its expanded event stream) are read out of that
//! log. What each view shows must not depend on how the log stores it, so
//! the digests below were taken from the views as they were before the
//! trace and the audit shared a store, and every change to the store has
//! to reproduce them byte for byte.
//!
//! The digests are FNV-1a (64 bit) over the rendered text, and over one
//! `Debug` line per audit event.

use std::fmt::Write as _;

use newton_aim::bench::experiments::fig07_command_trace_with;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::export_chrome_trace;
use newton_aim::core::layout::MatrixMapping;
use newton_aim::core::lut::ActivationKind;
use newton_aim::core::parallel::ParallelPolicy;
use newton_aim::core::system::NewtonSystem;
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::core::timeline::render_gantt;
use newton_aim::workloads::{generator, Benchmark, MvShape};

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The channel `fig07_command_trace_with` traces: one 16 x 512 product
/// on one channel of `base`.
fn fig07_channel(base: &NewtonConfig) -> NewtonChannel {
    let mut cfg = base.clone();
    cfg.channels = 1;
    let (m, n) = (16, 512);
    let matrix = generator::matrix(MvShape::new(m, n), 7);
    let vector = generator::vector(n, 7);
    let layout = ScheduleKind::InterleavedFullReuse.layout();
    let mapping =
        MatrixMapping::new(layout, m, n, cfg.dram.banks, cfg.row_elems(), 0).expect("mapping");
    let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).expect("channel");
    ch.enable_trace();
    ch.load_matrix(&mapping, &matrix).expect("load");
    ch.run_mv(&mapping, &schedule, &vector, false).expect("run");
    ch
}

#[test]
fn the_fig07_trace_views_keep_their_bytes() {
    let cfg = NewtonConfig::paper_default();
    let text = fig07_command_trace_with(&cfg).expect("fig07");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xe623_0605_7d92_5641,
        "fig07 trace text"
    );

    let ch = fig07_channel(&cfg);
    assert_eq!(
        ch.trace().render(),
        text,
        "the experiment renders this channel"
    );
    let gantt = render_gantt(&ch.trace(), ch.channel().timing().t_cmd, 120);
    assert_eq!(
        fnv1a(gantt.as_bytes()),
        0xb38a_3d8a_f80b_35b4,
        "Gantt chart"
    );
    let chrome = export_chrome_trace(&ch.trace(), ch.channel().timing(), cfg.dram.banks);
    assert_eq!(
        fnv1a(chrome.as_bytes()),
        0x22a3_75b4_7e1a_74a5,
        "Perfetto export"
    );
}

/// `(len, digest of the expanded events)` of the audit log of one
/// `run_resident` of BERT S1 on one channel, with the command trace
/// attached too when `traced`.
fn audited_bert_query(traced: bool) -> (usize, u64) {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    cfg.audit = true;
    cfg.parallel = ParallelPolicy::exact(1);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    if traced {
        for ch in sys.channels_mut() {
            ch.enable_trace();
        }
    }
    let shape = Benchmark::BertS1.shape();
    let matrix = generator::matrix(shape, 7);
    let loaded = sys.load_matrix(&matrix, shape.m, shape.n).expect("load");
    sys.run_resident(&loaded, &generator::vector(shape.n, 8))
        .expect("run");
    let audit = sys.channels()[0].channel().audit().expect("audited");
    let mut lines = String::new();
    for event in audit.events() {
        writeln!(lines, "{event:?}").expect("write to a String");
    }
    (audit.events().count(), fnv1a(lines.as_bytes()))
}

#[test]
fn the_audit_view_of_a_bert_query_keeps_its_events() {
    let (len, digest) = audited_bert_query(false);
    assert_eq!(
        (len, digest),
        (74_576, 0x1f88_301a_7a66_7afb),
        "audit len and event digest"
    );
    assert_eq!(
        audited_bert_query(true),
        (len, digest),
        "arming the trace leaves the audit view as it was"
    );
}
