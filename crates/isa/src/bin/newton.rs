//! The `newton` CLI: execute, lower, compare, and fuzz `.aim` traces.
//!
//! ```text
//! newton run <trace.aim> [--channels N] [--gddr6]
//! newton mv <trace.aim> [--backend hbm2e|gddr6|ideal|gpu|all]
//! newton lower (--bench NAME | --m M --n N [--seed S]) [--channels N] [--out FILE]
//! newton diff <trace.aim> --out-dir DIR
//! newton fuzz [--seed S] [--cases N]
//! ```
//!
//! `diff` is the conformance entry point CI drives: it renders the
//! byte-identity snapshot of the trace-driven and API-driven executions
//! into `DIR/trace/` and `DIR/api/` and exits nonzero when they differ
//! (so `diff -r DIR/trace DIR/api` is redundant but cheap insurance).

use std::process::ExitCode;

use newton_core::config::NewtonConfig;
use newton_core::system::NewtonSystem;
use newton_isa::backend::{self, Backend};
use newton_isa::generate;
use newton_isa::harness;
use newton_isa::interp;
use newton_isa::mv;
use newton_isa::{IsaError, Program};
use newton_workloads::rng::{mix64, CounterRng};
use newton_workloads::{Benchmark, MvShape};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  newton run <trace.aim> [--channels N] [--gddr6]\n  \
         newton mv <trace.aim> [--backend hbm2e|gddr6|ideal|gpu|all]\n  \
         newton lower (--bench NAME | --m M --n N [--seed S]) [--channels N] [--out FILE]\n  \
         newton diff <trace.aim> --out-dir DIR\n  \
         newton fuzz [--seed S] [--cases N]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

/// Pulls `--flag VALUE` out of `args`, removing both tokens.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a bare `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{what}: bad number {s:?}"))
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Program::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn base_config(args: &mut Vec<String>) -> Result<NewtonConfig, String> {
    let mut cfg = if take_switch(args, "--gddr6") {
        NewtonConfig::gddr6_aim()
    } else {
        NewtonConfig::paper_default()
    };
    if let Some(c) = take_opt(args, "--channels")? {
        cfg.channels = parse_usize(&c, "--channels")?;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "run" => cmd_run(args),
        "mv" => cmd_mv(args),
        "lower" => cmd_lower(args),
        "diff" => cmd_diff(args),
        "fuzz" => cmd_fuzz(args),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let cfg = base_config(&mut args)?;
    let [path] = args.as_slice() else {
        return Ok(usage());
    };
    let program = load_program(path)?;
    let run = interp::interpret(&program, cfg).map_err(|e| e.to_string())?;
    print!("{}", run.log);
    Ok(ExitCode::SUCCESS)
}

fn cmd_mv(mut args: Vec<String>) -> Result<ExitCode, String> {
    let which = take_opt(&mut args, "--backend")?.unwrap_or_else(|| "all".into());
    let [path] = args.as_slice() else {
        return Ok(usage());
    };
    let program = load_program(path)?;
    let trace = mv::recognize(&program).map_err(|e| e.to_string())?;
    let mut backends: Vec<Box<dyn Backend>> = match which.as_str() {
        "all" => backend::default_backends(),
        "hbm2e" => vec![Box::new(backend::NewtonBackend::hbm2e())],
        "gddr6" => vec![Box::new(backend::NewtonBackend::gddr6())],
        "ideal" => vec![Box::new(backend::IdealBackend::paper_default())],
        "gpu" => vec![Box::new(backend::GpuBackend::titan_v())],
        other => return Err(format!("unknown backend {other:?}")),
    };
    let report = harness::run_backends(&trace, &mut backends).map_err(|e| e.to_string())?;
    print!("{}", report.snapshot(&trace).render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_lower(mut args: Vec<String>) -> Result<ExitCode, String> {
    let mut cfg = base_config(&mut args)?;
    let bench = take_opt(&mut args, "--bench")?;
    let m = take_opt(&mut args, "--m")?;
    let n = take_opt(&mut args, "--n")?;
    let seed = take_opt(&mut args, "--seed")?;
    let out = take_opt(&mut args, "--out")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let program = if let Some(name) = bench {
        let bench = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
                format!("unknown benchmark {name:?}; known: {names:?}")
            })?;
        generate::lower_benchmark(bench, &cfg).map_err(|e| e.to_string())?
    } else {
        let (Some(m), Some(n)) = (m, n) else {
            return Err("lower needs --bench NAME or --m M --n N".into());
        };
        let m = parse_usize(&m, "--m")?;
        let n = parse_usize(&n, "--n")?;
        let seed: u64 = seed
            .as_deref()
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seed: bad number".to_string())?;
        // A short matrix wastes idle channels; clamp so every channel
        // holds at least one row (mirrors how experiments size systems).
        if m < cfg.channels {
            cfg.channels = m;
        }
        let shape = MvShape::new(m, n);
        let matrix = newton_workloads::generator::matrix(shape, seed);
        let vector = newton_workloads::generator::vector(n, seed + 1);
        generate::lower_mv(&cfg, &matrix, m, n, &vector).map_err(|e| e.to_string())?
    };
    let text = program.render();
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path} ({} instructions)", program.instrs.len());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out_dir = take_opt(&mut args, "--out-dir")?.ok_or("diff requires --out-dir DIR")?;
    let [path] = args.as_slice() else {
        return Ok(usage());
    };
    let program = load_program(path)?;
    let trace = mv::recognize(&program).map_err(|e| e.to_string())?;

    // Both paths execute on the geometry the trace declares.
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = trace.geometry.channels;
    if !trace.geometry.matches(&cfg) {
        cfg = NewtonConfig::gddr6_aim();
        cfg.channels = trace.geometry.channels;
    }
    if !trace.geometry.matches(&cfg) {
        return Err("trace geometry matches neither HBM2E nor GDDR6 presets".into());
    }

    // Trace-driven: physical byte replay of the WR_SBK stream.
    let mut sys_trace = NewtonSystem::new(cfg.clone()).map_err(|e| e.to_string())?;
    let loaded = trace
        .apply_physical(&mut sys_trace)
        .map_err(|e| e.to_string())?;
    let run_trace = sys_trace
        .run_resident(&loaded, &trace.vector)
        .map_err(|e| e.to_string())?;

    // API-driven: the ordinary load_matrix + run_mv pipeline.
    let mut sys_api = NewtonSystem::new(cfg).map_err(|e| e.to_string())?;
    let run_api = sys_api
        .run_mv(
            &trace.matrix,
            trace.geometry.m,
            trace.geometry.n,
            &trace.vector,
        )
        .map_err(|e| e.to_string())?;

    let snap_trace = harness::conformance_snapshot(&run_trace).render();
    let snap_api = harness::conformance_snapshot(&run_api).render();
    for (sub, text) in [("trace", &snap_trace), ("api", &snap_api)] {
        let dir = format!("{out_dir}/{sub}");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let file = format!("{dir}/conformance.json");
        std::fs::write(&file, text).map_err(|e| format!("cannot write {file}: {e}"))?;
    }
    if snap_trace == snap_api {
        println!(
            "conformant: trace and API paths are byte-identical ({} outputs, {} cycles)",
            run_trace.output.len(),
            run_trace.cycles
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("MISMATCH: trace-driven and API-driven snapshots differ under {out_dir}");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_fuzz(mut args: Vec<String>) -> Result<ExitCode, String> {
    let seed: u64 = take_opt(&mut args, "--seed")?
        .as_deref()
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed: bad number".to_string())?;
    let cases: usize = take_opt(&mut args, "--cases")?
        .as_deref()
        .unwrap_or("64")
        .parse()
        .map_err(|_| "--cases: bad number".to_string())?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2; // keep fuzz systems small and fast
    let mut errors = 0usize;
    let mut mutants_rejected = 0usize;
    for i in 0..cases as u64 {
        let program = generate::random_program(&cfg, seed.wrapping_add(i), 24);
        let text = program.render();
        let reparsed = Program::parse(&text)
            .map_err(|e| format!("case {i}: render/parse round-trip failed: {e}"))?;
        if reparsed != program {
            return Err(format!("case {i}: round-trip changed the program"));
        }
        // Typed errors are acceptable; panics are not (and would abort).
        if interp::interpret(&program, cfg.clone()).is_err() {
            errors += 1;
        }
        let (mutant, mutated_line) = mutate(&text, &CounterRng::new(mix64(seed.wrapping_add(i))));
        match Program::parse(&mutant) {
            Ok(_) => {}
            Err(IsaError::Parse { line, .. }) if line == mutated_line => mutants_rejected += 1,
            Err(e) => {
                return Err(format!(
                    "case {i}: mutant of line {mutated_line} failed with {e:?}: {mutant:?}"
                ))
            }
        }
    }
    println!(
        "fuzz ok: {cases} cases, {errors} rejected with typed errors, {cases} mutants \
         ({mutants_rejected} rejected at the mutated line, {} parsed), 0 panics",
        cases - mutants_rejected
    );
    Ok(ExitCode::SUCCESS)
}

/// Multi-byte characters the splice mutation writes: 2, 3 and 4 bytes
/// long, and one is whitespace outside ASCII.
const SPLICES: [&str; 4] = ["é", "€", "\u{3000}", "𝟘"];

/// One mutation of an instruction line of the rendered (ASCII) `text`,
/// and that line's 1-based number: truncate the text at a byte,
/// overwrite a byte, overwrite payload bytes in place with a multi-byte
/// character, or duplicate a token. A mutant must parse, or fail with a
/// parse error on that line.
fn mutate(text: &str, rng: &CounterRng) -> (String, usize) {
    let mut draw = (1..).map(|k| rng.u64_at(k));
    let mut pick = |n: usize| (draw.next().expect("endless draws") % n as u64) as usize;
    // Byte ranges of the instruction lines, without their '\n'.
    let mut lines = Vec::new();
    let mut start = 0;
    for (at, _) in text.match_indices('\n') {
        lines.push(start..at);
        start = at + 1;
    }
    let body = lines.split_off(1); // the magic's own errors are unit-tested
    let line_of = |at: usize| 1 + text[..at].matches('\n').count();
    match rng.u64_at(0) % 4 {
        0 => {
            let at = body[0].start + pick(text.len() + 1 - body[0].start);
            (text[..at].to_string(), line_of(at))
        }
        1 => {
            let at = body[0].start + pick(text.len() - body[0].start);
            let byte = if pick(16) == 0 {
                b'\t'
            } else {
                b' ' + pick(95) as u8
            };
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = byte;
            let mutant = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            (mutant, line_of(at))
        }
        2 => {
            let ch = SPLICES[pick(SPLICES.len())];
            let payloads: Vec<_> = body
                .iter()
                .filter(|r| text[r.start..r.end].starts_with("WR_GPR"))
                .collect();
            let (line, first) = if payloads.is_empty() {
                let long: Vec<_> = body.iter().filter(|r| r.len() >= ch.len()).collect();
                let line = long[pick(long.len())];
                (line, line.start)
            } else {
                let line = payloads[pick(payloads.len())];
                (line, line.end - 2 * newton_isa::instr::GPR_BYTES)
            };
            let at = first + pick(line.end - ch.len() + 1 - first);
            let mutant = format!("{}{ch}{}", &text[..at], &text[at + ch.len()..]);
            (mutant, line_of(at))
        }
        _ => {
            let line = body[pick(body.len())].clone();
            let mut tokens: Vec<&str> = text[line.clone()].split(' ').collect();
            let dup = pick(tokens.len());
            tokens.insert(dup, tokens[dup]);
            let mutant = format!(
                "{}{}{}",
                &text[..line.start],
                tokens.join(" "),
                &text[line.end..]
            );
            (mutant, line_of(line.start))
        }
    }
}
