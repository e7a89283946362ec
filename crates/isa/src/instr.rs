//! The typed AiM host-instruction set and its canonical text form.
//!
//! One `.aim` line is one instruction. The vocabulary follows the ISR
//! layer of SK hynix's AiM simulator — host-visible instructions that a
//! memory controller unrolls into DRAM(-like) command streams:
//!
//! | instruction | operands | meaning |
//! |---|---|---|
//! | `WR_CFR` | `idx value` | write configuration register |
//! | `WR_GPR` | `g <64 hex>` | load 256-bit host GPR `g` |
//! | `WR_SBK` | `g mask bank row col` | GPR → one bank's column |
//! | `WR_ABK` | `g mask row col` | GPR → same column of *all* banks |
//! | `WR_GB`  | `g mask off` | GPR → global-buffer sub-chunk `off` |
//! | `WR_BIAS`| `g mask` | GPR's 16 bf16 → each bank's MAC latch |
//! | `MAC_ABK`| `mask row chunk latch nsub flags` | ganged COMP row-set |
//! | `MAC_SBK`| `mask bank row nsub` | single-bank COMP burst |
//! | `RD_MAC` | `g mask latch` | 16 banks' latches → GPR |
//! | `RD_AF`  | `g mask latch` | same, through the activation LUT |
//! | `RD_SBK` | `g mask bank row col` | one bank's column → GPR |
//! | `COPY_BKGB` | `mask bank row off nsub` | bank row → global buffer |
//! | `COPY_GBBK` | `mask bank row off nsub` | global buffer → bank row |
//! | `WR` | `g mask bank row col` | *conventional* host write (queued) |
//! | `RD` | `mask bank row col` | *conventional* host read (queued) |
//! | `EOC` | | end of command stream |
//!
//! Channel masks are hex (`0x3` = channels 0 and 1). GPR payloads are 64
//! hex characters: 32 bytes in storage order, i.e. 16 little-endian bf16
//! elements. `MAC_ABK` flags are two characters — `L`/`-` (load the
//! input chunk via GWRITE) then `R`/`-` (reset the latch first).
//!
//! # Lexical grammar
//!
//! * A line ends at `\n`; a `\r` before it is a separator like any other.
//! * Tokens are separated by runs of the ASCII separators space, tab,
//!   `\r`, vertical tab and form feed.
//! * `#` starts a comment that runs to the end of its line, inside a
//!   token or not.
//! * Decimal operands are `[0-9]+` and must fit in 64 bits; leading zeros
//!   are allowed.
//! * Channel masks are `0x` followed by one or more hex digits of either
//!   case, at most 64 bits of value.
//! * A GPR payload is exactly 64 hex digits of either case.
//!
//! Forms the earlier, library-routine-based parser accepted and this one
//! rejects: a leading `+` on a decimal or a mask (`+5`, `0x+3`), non-ASCII
//! whitespace (no-break space, ideographic space, …), which is now part
//! of a token, and a `+` inside a payload's hex pair (`+f`).
//!
//! Rendering ([`fmt::Display`]) and parsing ([`Instr::parse_line`]) are
//! exact inverses: `Instr → text → Instr` is lossless, property-tested
//! by the fuzzer. [`crate::Program::parse`] runs the same lexer over a
//! whole trace in one pass, with no allocation per instruction.

use std::fmt;

/// Host general-purpose registers (256-bit each).
pub const GPR_COUNT: usize = 64;
/// Configuration registers.
pub const CFR_COUNT: usize = 16;
/// Bytes in one GPR (256 bits).
pub const GPR_BYTES: usize = 32;

/// Well-known CFR indices: the trace geometry header.
pub mod cfr {
    /// Matrix rows of the lowered workload.
    pub const M: usize = 0;
    /// Matrix columns of the lowered workload.
    pub const N: usize = 1;
    /// Channels of the origin device.
    pub const CHANNELS: usize = 2;
    /// Banks per channel of the origin device.
    pub const BANKS: usize = 3;
    /// Elements per DRAM row of the origin device.
    pub const ROW_ELEMS: usize = 4;
    /// Schedule kind: 0 interleaved-full-reuse, 1 no-reuse, 2 four-latch.
    pub const SCHEDULE: usize = 5;
}

/// One AiM host instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Configuration-register write.
    WrCfr {
        /// Register index.
        idx: usize,
        /// Value.
        value: u64,
    },
    /// 256-bit GPR load from the host.
    WrGpr {
        /// Register index.
        gpr: usize,
        /// Payload, in storage byte order.
        data: [u8; GPR_BYTES],
    },
    /// GPR → one bank's column (single-bank weight deposit).
    WrSbk {
        /// Source GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// Column (256-bit units).
        col: usize,
    },
    /// GPR → the same column of every bank.
    WrAbk {
        /// Source GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// DRAM row.
        row: usize,
        /// Column (256-bit units).
        col: usize,
    },
    /// GPR → global-buffer sub-chunk.
    WrGb {
        /// Source GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Sub-chunk offset within the buffer.
        offset: usize,
    },
    /// GPR's 16 bf16 lanes → the 16 banks' MAC latches (bias preload).
    WrBias {
        /// Source GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
    },
    /// One ganged COMP row-set: activate `row` in all banks, stream
    /// `n_sub` sub-chunk COMPs against the global buffer, precharge.
    MacAbk {
        /// Channel mask.
        channels: u64,
        /// DRAM row to activate.
        row: usize,
        /// Input-vector chunk this row-set consumes (descriptive; the
        /// conformance layer checks it against the rebuilt schedule).
        chunk: usize,
        /// Result latch accumulated into.
        latch: usize,
        /// Sub-chunk COMPs to stream.
        n_sub: usize,
        /// Spend GWRITE commands loading the chunk first.
        load_chunk: bool,
        /// Clear the latch before the first COMP.
        reset_latch: bool,
    },
    /// Single-bank COMP burst into latch 0.
    MacSbk {
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row to activate.
        row: usize,
        /// Sub-chunk COMPs to stream.
        n_sub: usize,
    },
    /// 16 banks' result latches → GPR (READRES data path).
    RdMac {
        /// Destination GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Latch to read.
        latch: usize,
    },
    /// Same as [`Instr::RdMac`] but through the activation LUT.
    RdAf {
        /// Destination GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Latch to read.
        latch: usize,
    },
    /// One bank's column → GPR.
    RdSbk {
        /// Destination GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// Column (256-bit units).
        col: usize,
    },
    /// Bank row sub-chunks → global buffer.
    CopyBkGb {
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// First global-buffer sub-chunk written.
        offset: usize,
        /// Sub-chunks copied.
        n_sub: usize,
    },
    /// Global buffer sub-chunks → bank row.
    CopyGbBk {
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// First global-buffer sub-chunk read.
        offset: usize,
        /// Sub-chunks copied.
        n_sub: usize,
    },
    /// Conventional host write: queued, serviced before the next AiM
    /// instruction (the serialization rule).
    WrHost {
        /// Source GPR.
        gpr: usize,
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// Column (256-bit units).
        col: usize,
    },
    /// Conventional host read: queued, serviced before the next AiM
    /// instruction.
    RdHost {
        /// Channel mask.
        channels: u64,
        /// Bank.
        bank: usize,
        /// DRAM row.
        row: usize,
        /// Column (256-bit units).
        col: usize,
    },
    /// End of command stream: drain queued host requests, settle.
    Eoc,
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0xff;

/// The value of every byte read as a hex digit of either case.
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// 32 bytes as 64 lowercase hex characters, formatted without allocating.
struct Hex32<'a>(&'a [u8; GPR_BYTES]);

impl fmt::Display for Hex32<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = [0u8; GPR_BYTES * 2];
        for (pair, b) in digits.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX_DIGITS[usize::from(b >> 4)];
            pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
        }
        f.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

/// Renders 32 bytes as 64 lowercase hex characters in storage order.
#[must_use]
pub fn hex32(data: &[u8; GPR_BYTES]) -> String {
    Hex32(data).to_string()
}

fn parse_hex32(tok: &str) -> Result<[u8; GPR_BYTES], String> {
    let digits = tok.as_bytes();
    if digits.len() != GPR_BYTES * 2 {
        return Err(format!(
            "GPR payload must be {} hex chars, got {}",
            GPR_BYTES * 2,
            digits.len()
        ));
    }
    let mut out = [0u8; GPR_BYTES];
    for (slot, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        if hi == NOT_HEX || lo == NOT_HEX {
            // A pair may split a multi-byte character, so it is shown
            // lossily rather than sliced out of `tok`.
            return Err(format!("bad hex byte {:?}", String::from_utf8_lossy(pair)));
        }
        *slot = hi << 4 | lo;
    }
    Ok(out)
}

/// `[0-9]+` as a `u64`; `None` for anything else or on overflow.
fn decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(value)
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, String> {
    decimal(tok.as_bytes())
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| format!("bad {what} {tok:?}"))
}

fn parse_u64(tok: &str, what: &str) -> Result<u64, String> {
    decimal(tok.as_bytes()).ok_or_else(|| format!("bad {what} {tok:?}"))
}

fn parse_mask(tok: &str) -> Result<u64, String> {
    let hex = tok
        .strip_prefix("0x")
        .ok_or_else(|| format!("channel mask must be 0x-hex, got {tok:?}"))?;
    let bad = || format!("bad channel mask {tok:?}");
    if hex.is_empty() {
        return Err(bad());
    }
    let mut mask = 0u64;
    for &c in hex.as_bytes() {
        let d = NIBBLE[usize::from(c)];
        if d == NOT_HEX || mask >> 60 != 0 {
            return Err(bad());
        }
        mask = mask << 4 | u64::from(d);
    }
    Ok(mask)
}

fn parse_flags(tok: &str) -> Result<(bool, bool), String> {
    let b = tok.as_bytes();
    if b.len() != 2 || !(b[0] == b'L' || b[0] == b'-') || !(b[1] == b'R' || b[1] == b'-') {
        return Err(format!("flags must be two chars L/- then R/-, got {tok:?}"));
    }
    Ok((b[0] == b'L', b[1] == b'R'))
}

/// [`CLASS`] of the token separators (`\n` ends a line instead).
const SEPARATOR: u8 = 1;
/// [`CLASS`] of the bytes that end a line's tokens: `\n` and `#`.
const LINE_END: u8 = 2;

/// The lexical class of every byte; 0 for the bytes of a token.
const CLASS: [u8; 256] = {
    let mut table = [0; 256];
    table[b' ' as usize] = SEPARATOR;
    table[b'\t' as usize] = SEPARATOR;
    table[b'\r' as usize] = SEPARATOR;
    table[0x0b] = SEPARATOR;
    table[0x0c] = SEPARATOR;
    table[b'\n' as usize] = LINE_END;
    table[b'#' as usize] = LINE_END;
    table
};

fn is_separator(b: u8) -> bool {
    CLASS[usize::from(b)] == SEPARATOR
}

/// A cursor over `.aim` text that hands out the tokens of one line at a
/// time, in a single forward pass over the bytes.
#[derive(Debug)]
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Lexer<'a> {
        Lexer { text, pos: 0 }
    }

    /// The next token of the current line, or `None` once the line's
    /// `\n`, its `#` comment or the end of the text is reached (the
    /// cursor then stays there).
    pub(crate) fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && is_separator(bytes[i]) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && CLASS[usize::from(bytes[i])] == 0 {
            i += 1;
        }
        self.pos = i;
        // Both ends sit next to an ASCII byte or at an end of the text,
        // so they are character boundaries.
        (i > start).then(|| &self.text[start..i])
    }

    /// The rest of the current line up to its `#` comment, separators
    /// trimmed; the cursor moves to the comment or the line's end.
    pub(crate) fn rest_of_line(&mut self) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        while self.pos < bytes.len() && CLASS[usize::from(bytes[self.pos])] != LINE_END {
            self.pos += 1;
        }
        self.text[start..self.pos].trim_matches(|c| u8::try_from(c).is_ok_and(is_separator))
    }

    /// Moves to the start of the next line; `false` when the text holds
    /// no further `\n`.
    pub(crate) fn next_line(&mut self) -> bool {
        match self.text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(at) => {
                self.pos += at + 1;
                true
            }
            None => {
                self.pos = self.text.len();
                false
            }
        }
    }
}

impl Instr {
    /// Parses one instruction line; a trailing `#` comment is allowed.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformation; the caller
    /// ([`crate::Program::parse`]) attaches the source line number.
    pub fn parse_line(line: &str) -> Result<Instr, String> {
        let mut lex = Lexer::new(line);
        let op = lex.token().ok_or_else(|| "empty instruction".to_string())?;
        let instr = Instr::lex(op, &mut lex)?;
        while lex.next_line() {
            if lex.token().is_some() {
                return Err("more than one line".into());
            }
        }
        Ok(instr)
    }

    /// Reads the operands of `op` from the rest of `lex`'s current line.
    pub(crate) fn lex(op: &str, lex: &mut Lexer<'_>) -> Result<Instr, String> {
        // No instruction takes more than six operands; extra ones are
        // only counted, for the error message.
        let mut args = [""; 6];
        let mut count = 0;
        while let Some(tok) = lex.token() {
            if let Some(slot) = args.get_mut(count) {
                *slot = tok;
            }
            count += 1;
        }
        let want = |n: usize| -> Result<(), String> {
            if count == n {
                Ok(())
            } else {
                Err(format!("{op} takes {n} operands, got {count}"))
            }
        };
        match op {
            "WR_CFR" => {
                want(2)?;
                Ok(Instr::WrCfr {
                    idx: parse_usize(args[0], "CFR index")?,
                    value: parse_u64(args[1], "CFR value")?,
                })
            }
            "WR_GPR" => {
                want(2)?;
                Ok(Instr::WrGpr {
                    gpr: parse_usize(args[0], "GPR index")?,
                    data: parse_hex32(args[1])?,
                })
            }
            "WR_SBK" => {
                want(5)?;
                Ok(Instr::WrSbk {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    bank: parse_usize(args[2], "bank")?,
                    row: parse_usize(args[3], "row")?,
                    col: parse_usize(args[4], "column")?,
                })
            }
            "WR_ABK" => {
                want(4)?;
                Ok(Instr::WrAbk {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    row: parse_usize(args[2], "row")?,
                    col: parse_usize(args[3], "column")?,
                })
            }
            "WR_GB" => {
                want(3)?;
                Ok(Instr::WrGb {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    offset: parse_usize(args[2], "sub-chunk offset")?,
                })
            }
            "WR_BIAS" => {
                want(2)?;
                Ok(Instr::WrBias {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                })
            }
            "MAC_ABK" => {
                want(6)?;
                let (load_chunk, reset_latch) = parse_flags(args[5])?;
                Ok(Instr::MacAbk {
                    channels: parse_mask(args[0])?,
                    row: parse_usize(args[1], "row")?,
                    chunk: parse_usize(args[2], "chunk")?,
                    latch: parse_usize(args[3], "latch")?,
                    n_sub: parse_usize(args[4], "sub-chunk count")?,
                    load_chunk,
                    reset_latch,
                })
            }
            "MAC_SBK" => {
                want(4)?;
                Ok(Instr::MacSbk {
                    channels: parse_mask(args[0])?,
                    bank: parse_usize(args[1], "bank")?,
                    row: parse_usize(args[2], "row")?,
                    n_sub: parse_usize(args[3], "sub-chunk count")?,
                })
            }
            "RD_MAC" => {
                want(3)?;
                Ok(Instr::RdMac {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    latch: parse_usize(args[2], "latch")?,
                })
            }
            "RD_AF" => {
                want(3)?;
                Ok(Instr::RdAf {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    latch: parse_usize(args[2], "latch")?,
                })
            }
            "RD_SBK" => {
                want(5)?;
                Ok(Instr::RdSbk {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    bank: parse_usize(args[2], "bank")?,
                    row: parse_usize(args[3], "row")?,
                    col: parse_usize(args[4], "column")?,
                })
            }
            "COPY_BKGB" => {
                want(5)?;
                Ok(Instr::CopyBkGb {
                    channels: parse_mask(args[0])?,
                    bank: parse_usize(args[1], "bank")?,
                    row: parse_usize(args[2], "row")?,
                    offset: parse_usize(args[3], "sub-chunk offset")?,
                    n_sub: parse_usize(args[4], "sub-chunk count")?,
                })
            }
            "COPY_GBBK" => {
                want(5)?;
                Ok(Instr::CopyGbBk {
                    channels: parse_mask(args[0])?,
                    bank: parse_usize(args[1], "bank")?,
                    row: parse_usize(args[2], "row")?,
                    offset: parse_usize(args[3], "sub-chunk offset")?,
                    n_sub: parse_usize(args[4], "sub-chunk count")?,
                })
            }
            "WR" => {
                want(5)?;
                Ok(Instr::WrHost {
                    gpr: parse_usize(args[0], "GPR index")?,
                    channels: parse_mask(args[1])?,
                    bank: parse_usize(args[2], "bank")?,
                    row: parse_usize(args[3], "row")?,
                    col: parse_usize(args[4], "column")?,
                })
            }
            "RD" => {
                want(4)?;
                Ok(Instr::RdHost {
                    channels: parse_mask(args[0])?,
                    bank: parse_usize(args[1], "bank")?,
                    row: parse_usize(args[2], "row")?,
                    col: parse_usize(args[3], "column")?,
                })
            }
            "EOC" => {
                want(0)?;
                Ok(Instr::Eoc)
            }
            other => Err(format!("unknown instruction {other:?}")),
        }
    }

    /// Whether this instruction touches the AiM side of the controller
    /// (and must therefore wait for queued conventional traffic — the
    /// serialization rule).
    #[must_use]
    pub fn is_aim(&self) -> bool {
        !matches!(
            self,
            Instr::WrCfr { .. }
                | Instr::WrGpr { .. }
                | Instr::WrHost { .. }
                | Instr::RdHost { .. }
                | Instr::Eoc
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::WrCfr { idx, value } => write!(f, "WR_CFR {idx} {value}"),
            Instr::WrGpr { gpr, data } => write!(f, "WR_GPR {gpr} {}", Hex32(data)),
            Instr::WrSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => write!(f, "WR_SBK {gpr} {channels:#x} {bank} {row} {col}"),
            Instr::WrAbk {
                gpr,
                channels,
                row,
                col,
            } => write!(f, "WR_ABK {gpr} {channels:#x} {row} {col}"),
            Instr::WrGb {
                gpr,
                channels,
                offset,
            } => write!(f, "WR_GB {gpr} {channels:#x} {offset}"),
            Instr::WrBias { gpr, channels } => write!(f, "WR_BIAS {gpr} {channels:#x}"),
            Instr::MacAbk {
                channels,
                row,
                chunk,
                latch,
                n_sub,
                load_chunk,
                reset_latch,
            } => write!(
                f,
                "MAC_ABK {channels:#x} {row} {chunk} {latch} {n_sub} {}{}",
                if *load_chunk { 'L' } else { '-' },
                if *reset_latch { 'R' } else { '-' },
            ),
            Instr::MacSbk {
                channels,
                bank,
                row,
                n_sub,
            } => write!(f, "MAC_SBK {channels:#x} {bank} {row} {n_sub}"),
            Instr::RdMac {
                gpr,
                channels,
                latch,
            } => write!(f, "RD_MAC {gpr} {channels:#x} {latch}"),
            Instr::RdAf {
                gpr,
                channels,
                latch,
            } => write!(f, "RD_AF {gpr} {channels:#x} {latch}"),
            Instr::RdSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => write!(f, "RD_SBK {gpr} {channels:#x} {bank} {row} {col}"),
            Instr::CopyBkGb {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => write!(f, "COPY_BKGB {channels:#x} {bank} {row} {offset} {n_sub}"),
            Instr::CopyGbBk {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => write!(f, "COPY_GBBK {channels:#x} {bank} {row} {offset} {n_sub}"),
            Instr::WrHost {
                gpr,
                channels,
                bank,
                row,
                col,
            } => write!(f, "WR {gpr} {channels:#x} {bank} {row} {col}"),
            Instr::RdHost {
                channels,
                bank,
                row,
                col,
            } => write!(f, "RD {channels:#x} {bank} {row} {col}"),
            Instr::Eoc => write!(f, "EOC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_variant() {
        let samples = [
            Instr::WrCfr { idx: 2, value: 24 },
            Instr::WrGpr {
                gpr: 63,
                data: [0xab; GPR_BYTES],
            },
            Instr::WrSbk {
                gpr: 1,
                channels: 0x3,
                bank: 5,
                row: 17,
                col: 2,
            },
            Instr::WrAbk {
                gpr: 0,
                channels: 0x1,
                row: 4,
                col: 0,
            },
            Instr::WrGb {
                gpr: 9,
                channels: 0xff,
                offset: 31,
            },
            Instr::WrBias {
                gpr: 2,
                channels: 0x1,
            },
            Instr::MacAbk {
                channels: 0xffffff,
                row: 7,
                chunk: 1,
                latch: 0,
                n_sub: 32,
                load_chunk: true,
                reset_latch: false,
            },
            Instr::MacSbk {
                channels: 0x2,
                bank: 15,
                row: 0,
                n_sub: 4,
            },
            Instr::RdMac {
                gpr: 3,
                channels: 0x1,
                latch: 0,
            },
            Instr::RdAf {
                gpr: 4,
                channels: 0x1,
                latch: 0,
            },
            Instr::RdSbk {
                gpr: 5,
                channels: 0x1,
                bank: 0,
                row: 1,
                col: 3,
            },
            Instr::CopyBkGb {
                channels: 0x1,
                bank: 2,
                row: 9,
                offset: 0,
                n_sub: 8,
            },
            Instr::CopyGbBk {
                channels: 0x1,
                bank: 2,
                row: 9,
                offset: 0,
                n_sub: 8,
            },
            Instr::WrHost {
                gpr: 6,
                channels: 0x1,
                bank: 1,
                row: 100,
                col: 0,
            },
            Instr::RdHost {
                channels: 0x1,
                bank: 1,
                row: 100,
                col: 0,
            },
            Instr::Eoc,
        ];
        let mut texts: Vec<(String, &Instr)> = samples.iter().map(|i| (i.to_string(), i)).collect();
        // Uppercase hex, leading zeros and a trailing comment read as the
        // canonical text does.
        texts.push((
            format!("WR_GPR 063 {}", "AB".repeat(GPR_BYTES)),
            &samples[1],
        ));
        texts.push((
            "MAC_ABK 0x00FfFFff 007 01 00 032 L- # c".into(),
            &samples[6],
        ));
        for (text, i) in &texts {
            let back = Instr::parse_line(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(&back, *i, "{text}");
        }
    }

    #[test]
    fn malformed_lines_rejected() {
        let multi_byte = format!("WR_GPR 0 {}a", "€".repeat(21)); // 64 bytes
        let plus_pair = format!("WR_GPR 0 +f{}", "0".repeat(62));
        for bad in [
            "FROB 1 2",
            "WR_GPR 0 zz",
            &multi_byte,
            &plus_pair,
            "WR_CFR 0 18446744073709551616", // u64::MAX + 1
            "WR_CFR +0 1",
            "WR_BIAS 0 0x+1",
            "WR_BIAS 0 0x",
            "WR_BIAS 0 0x10000000000000000",
            "WR_CFR\u{a0}0 1",
            "WR_SBK 0 3 0 0 0", // mask missing 0x
            "MAC_ABK 0x1 0 0 0 4 X-",
            "EOC now",
            "EOC\nEOC",
            "",
        ] {
            assert!(Instr::parse_line(bad).is_err(), "{bad:?}");
        }
    }
}
