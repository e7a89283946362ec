//! The golden `.aim` corpus: each checked-in trace's interpreter log is
//! pinned byte-for-byte against its `.expected` sibling.
//!
//! The interpreter issues its commands through the controller's row-set
//! operations, which run on `NewtonConfig::engine`; the engines are
//! byte-identical by contract, so every trace runs on both and both logs
//! must equal the one `.expected` file. Regenerate (after an intentional
//! semantic change) with:
//!
//! ```text
//! cargo run -p newton-isa --bin newton -- run crates/isa/tests/traces/<name>.aim \
//!     > crates/isa/tests/traces/<name>.expected
//! ```

use newton_core::config::{NewtonConfig, TimingEngine};
use newton_isa::{generate, interp, IsaError, Program};
use newton_workloads::Benchmark;

fn golden(name: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/traces");
    let trace = std::fs::read_to_string(format!("{dir}/{name}.aim")).unwrap();
    let expected = std::fs::read_to_string(format!("{dir}/{name}.expected")).unwrap();
    let program = Program::parse(&trace).unwrap();
    for engine in [TimingEngine::Reference, TimingEngine::default()] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.engine = engine;
        let run = interp::interpret(&program, cfg).unwrap();
        assert_eq!(
            run.log, expected,
            "golden log drift for {name}.aim on {engine:?}"
        );
    }
}

#[test]
fn single_bank_write_read() {
    golden("single_bank");
}

#[test]
fn ganged_all_bank_comp() {
    golden("ganged_comp");
}

#[test]
fn global_buffer_roundtrip() {
    golden("gb_roundtrip");
}

#[test]
fn bias_preload_and_mac_readout() {
    golden("bias_mac");
}

#[test]
fn mixed_aim_and_conventional_traffic() {
    golden("mixed_host");
}

/// Host traffic to five banks: FR-FCFS overlaps one bank's activation
/// with another's column access and precharge, so the last of the seven
/// requests issues at cycle 92 although each precharges its bank.
#[test]
fn conventional_traffic_overlaps_banks() {
    golden("mixed_host_banks");
}

#[test]
fn malformed_trace_is_a_typed_line_error() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/traces");
    let trace = std::fs::read_to_string(format!("{dir}/malformed.aim")).unwrap();
    match Program::parse(&trace) {
        Err(IsaError::Parse { line, msg }) => {
            assert_eq!(line, 6, "bad instruction sits on source line 6");
            assert!(msg.contains("hex"), "{msg}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// The serialization rule, observed through the golden log itself: the
/// host responses in `mixed_host.expected` must precede the MAC readout
/// (conventional traffic drains before the next AiM instruction).
#[test]
fn serialization_rule_orders_host_before_mac() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/traces");
    let log = std::fs::read_to_string(format!("{dir}/mixed_host.expected")).unwrap();
    let host = log.find("HOST ch=0 RD").expect("host read logged");
    let mac = log.find("RD_MAC").expect("mac readout logged");
    assert!(host < mac, "host queue must drain before the MAC readout");
}

/// FNV-1a 64-bit over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The lowered Table II BERT S1 layer on 2 channels, the trace
/// `newton lower --bench BERTs1 --channels 2` writes, renders to the
/// exact bytes the `fmt`-based renderer wrote (CI checks the same file's
/// sha256 through the CLI) and parses back to itself.
#[test]
fn lowered_bert_s1_text_is_canonical() {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    let program = generate::lower_benchmark(Benchmark::BertS1, &cfg).unwrap();
    let text = program.render();
    assert_eq!(text.len(), 6_338_797);
    assert_eq!(fnv1a(text.as_bytes()), 0xc0de_f8f8_00b7_9cc2);
    assert_eq!(
        text.capacity(),
        text.len(),
        "render sizes its buffer exactly"
    );
    assert_eq!(Program::parse(&text).unwrap(), program);
}
