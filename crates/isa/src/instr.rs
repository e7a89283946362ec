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
//! There is one text form and one writer for it: each instruction hands
//! its tokens to a sink, which either appends their bytes (decimals two
//! digits a step, masks a nibble at a time, payloads four bytes to eight
//! digits a step) or counts them. [`crate::Program::render`] counts
//! first, sizes one buffer exactly and writes every line into it;
//! [`fmt::Display`] writes one line through the same sink. Rendering
//! and parsing ([`Instr::parse_line`]) are exact inverses:
//! `Instr → text → Instr` is lossless, property-tested by the fuzzer and
//! pinned at boundary operands by this module's tests.
//! [`crate::Program::parse`] runs the same lexer over a whole trace in
//! one pass, with no allocation per instruction; it passes over a long
//! token eight bytes a step and decodes a payload eight digits a step,
//! going back to the digit pairs only to name a bad one.

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

/// The two decimal digits of every value below 100.
const DEC_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0; 2]; 100];
    let mut n = 0;
    while n < 100 {
        table[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    table
};

/// The receiver of an instruction's canonical text, token by token:
/// a `Vec<u8>` appends the text, a [`TextLen`] counts its bytes. Every
/// operand comes after a space.
pub(crate) trait TextSink {
    /// The mnemonic, first on the line.
    fn op(&mut self, op: &'static str);
    /// A decimal operand.
    fn dec(&mut self, value: u64);
    /// A channel mask: `0x`, then lowercase hex without leading zeros.
    fn mask(&mut self, mask: u64);
    /// A GPR payload: 64 lowercase hex digits in storage order.
    fn payload(&mut self, data: &[u8; GPR_BYTES]);
    /// `MAC_ABK`'s flags: `L` or `-`, then `R` or `-`.
    fn flags(&mut self, load: bool, reset: bool);
}

impl TextSink for Vec<u8> {
    fn op(&mut self, op: &'static str) {
        self.extend_from_slice(op.as_bytes());
    }

    fn dec(&mut self, value: u64) {
        self.push(b' ');
        write_decimal(self, value);
    }

    fn mask(&mut self, mask: u64) {
        self.extend_from_slice(b" 0x");
        for nibble in (0..mask_digits(mask)).rev() {
            self.push(HEX_DIGITS[(mask >> (4 * nibble) & 0xf) as usize]);
        }
    }

    fn payload(&mut self, data: &[u8; GPR_BYTES]) {
        self.push(b' ');
        write_payload(self, data);
    }

    fn flags(&mut self, load: bool, reset: bool) {
        self.extend_from_slice(&[
            b' ',
            if load { b'L' } else { b'-' },
            if reset { b'R' } else { b'-' },
        ]);
    }
}

/// The byte count of a canonical text.
struct TextLen(usize);

impl TextSink for TextLen {
    fn op(&mut self, op: &'static str) {
        self.0 += op.len();
    }

    fn dec(&mut self, value: u64) {
        self.0 += 1 + decimal_digits(value);
    }

    fn mask(&mut self, mask: u64) {
        self.0 += 3 + mask_digits(mask);
    }

    fn payload(&mut self, _: &[u8; GPR_BYTES]) {
        self.0 += 1 + 2 * GPR_BYTES;
    }

    fn flags(&mut self, _: bool, _: bool) {
        self.0 += 3;
    }
}

/// Digits in `value`'s decimal text.
fn decimal_digits(value: u64) -> usize {
    match value {
        0..10 => 1,
        10..100 => 2,
        _ => value.ilog10() as usize + 1,
    }
}

/// Hex digits in a mask's canonical text (one for an empty mask).
fn mask_digits(mask: u64) -> usize {
    (64 - mask.leading_zeros() as usize).div_ceil(4).max(1)
}

/// Appends `value` in decimal, two digits a step.
fn write_decimal(out: &mut Vec<u8>, mut value: u64) {
    if value < 10 {
        out.push(b'0' + value as u8);
        return;
    }
    if value < 100 {
        out.extend_from_slice(&DEC_PAIRS[value as usize]);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while value >= 100 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DEC_PAIRS[(value % 100) as usize]);
        value /= 100;
    }
    if value >= 10 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DEC_PAIRS[value as usize]);
    } else {
        at -= 1;
        digits[at] = b'0' + value as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends 32 bytes as 64 lowercase hex digits in storage order, four
/// bytes a step.
fn write_payload(out: &mut Vec<u8>, data: &[u8; GPR_BYTES]) {
    let mut digits = [0u8; 2 * GPR_BYTES];
    for (dst, src) in digits
        .as_chunks_mut::<8>()
        .0
        .iter_mut()
        .zip(data.as_chunks::<4>().0)
    {
        *dst = hex_digits(u32::from_le_bytes(*src)).to_le_bytes();
    }
    out.extend_from_slice(&digits);
}

/// The eight lowercase hex digits of four bytes, as a little-endian word
/// in storage order: byte k's high digit, then its low one.
fn hex_digits(bytes: u32) -> u64 {
    let x = u64::from(bytes);
    let spread = (x | x << 16) & 0x0000_ffff_0000_ffff;
    let spread = (spread | spread << 8) & 0x00ff_00ff_00ff_00ff;
    // Byte k now sits in byte 2k; its high nibble stays there and its
    // low one moves up to byte 2k + 1.
    let nibbles = (spread >> 4 & splat(0x0f)) | (spread & splat(0x0f)) << 8;
    let letters = (nibbles + splat(6)) >> 4 & splat(1);
    nibbles + splat(b'0') + letters * u64::from(b'a' - b'0' - 10)
}

/// Renders 32 bytes as 64 lowercase hex characters in storage order.
#[must_use]
pub fn hex32(data: &[u8; GPR_BYTES]) -> String {
    let mut out = Vec::with_capacity(2 * GPR_BYTES);
    write_payload(&mut out, data);
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Eight copies of one byte.
const fn splat(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// The high bit of every byte.
const HIGH: u64 = splat(0x80);

/// The high bit of every byte of `word` in `lo..=hi`; every byte of
/// `word` must be below 0x80, so no sum carries into its neighbour.
fn bytes_in(word: u64, lo: u8, hi: u8) -> u64 {
    (word + splat(0x80 - lo)) & !(word + splat(0x7f - hi)) & HIGH
}

/// Eight hex digits of either case, read as a little-endian word, as
/// the four bytes they spell; `None` when any byte is not a hex digit.
fn hex_word(word: u64) -> Option<[u8; 4]> {
    if word & HIGH != 0 {
        return None;
    }
    let digit = bytes_in(word, b'0', b'9');
    let letter = bytes_in(word | splat(0x20), b'a', b'f');
    if digit | letter != HIGH {
        return None;
    }
    let nibbles = (word & splat(0x0f)) + (letter >> 7) * 9;
    // Byte 2k holds a pair's high nibble, byte 2k + 1 its low one.
    let pairs = (nibbles << 4 | nibbles >> 8) & 0x00ff_00ff_00ff_00ff;
    let pairs = (pairs | pairs >> 8) & 0x0000_ffff_0000_ffff;
    Some(((pairs | pairs >> 16) as u32).to_le_bytes())
}

/// Decodes a 64-digit payload eight digits a step.
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
    for (slot, word) in out
        .as_chunks_mut::<4>()
        .0
        .iter_mut()
        .zip(digits.as_chunks::<8>().0)
    {
        match hex_word(u64::from_le_bytes(*word)) {
            Some(bytes) => *slot = bytes,
            None => return Err(bad_hex_pair(digits)),
        }
    }
    Ok(out)
}

/// The error for a payload holding a non-hex byte: it names the first
/// digit pair holding one.
fn bad_hex_pair(digits: &[u8]) -> String {
    let pair = digits
        .chunks_exact(2)
        .find(|pair| pair.iter().any(|&c| NIBBLE[usize::from(c)] == NOT_HEX))
        .unwrap_or(digits);
    // A pair may split a multi-byte character, so it is shown lossily
    // rather than sliced out of the token.
    format!("bad hex byte {:?}", String::from_utf8_lossy(pair))
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

/// The first byte at or after `start` that ends a token, or the end of
/// `bytes`. A token's first eight bytes, which hold all of most
/// mnemonics, decimals and masks, are scanned one at a time; past them
/// (a payload), eight bytes with none below `#` + 1 hold no token end,
/// since every byte that ends one is below it, and are passed over as
/// one word.
fn token_end(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    let short = bytes.len().min(start + 8);
    while i < short {
        if CLASS[usize::from(bytes[i])] != 0 {
            return i;
        }
        i += 1;
    }
    while let Some(word) = bytes[i..].first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        if word.wrapping_sub(splat(b'#' + 1)) & !word & HIGH != 0 {
            break;
        }
        i += 8;
    }
    while i < bytes.len() && CLASS[usize::from(bytes[i])] == 0 {
        i += 1;
    }
    i
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
        let i = token_end(bytes, i);
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

impl Instr {
    /// Hands this instruction's canonical line, without its `\n`, to
    /// `sink` token by token: the one writer of the text form, behind
    /// [`crate::Program::render`], [`fmt::Display`] and
    /// [`Instr::text_len`].
    pub(crate) fn write_text(&self, sink: &mut impl TextSink) {
        match self {
            Instr::WrCfr { idx, value } => {
                sink.op("WR_CFR");
                sink.dec(*idx as u64);
                sink.dec(*value);
            }
            Instr::WrGpr { gpr, data } => {
                sink.op("WR_GPR");
                sink.dec(*gpr as u64);
                sink.payload(data);
            }
            Instr::WrSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                sink.op("WR_SBK");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*col as u64);
            }
            Instr::WrAbk {
                gpr,
                channels,
                row,
                col,
            } => {
                sink.op("WR_ABK");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*row as u64);
                sink.dec(*col as u64);
            }
            Instr::WrGb {
                gpr,
                channels,
                offset,
            } => {
                sink.op("WR_GB");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*offset as u64);
            }
            Instr::WrBias { gpr, channels } => {
                sink.op("WR_BIAS");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
            }
            Instr::MacAbk {
                channels,
                row,
                chunk,
                latch,
                n_sub,
                load_chunk,
                reset_latch,
            } => {
                sink.op("MAC_ABK");
                sink.mask(*channels);
                sink.dec(*row as u64);
                sink.dec(*chunk as u64);
                sink.dec(*latch as u64);
                sink.dec(*n_sub as u64);
                sink.flags(*load_chunk, *reset_latch);
            }
            Instr::MacSbk {
                channels,
                bank,
                row,
                n_sub,
            } => {
                sink.op("MAC_SBK");
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*n_sub as u64);
            }
            Instr::RdMac {
                gpr,
                channels,
                latch,
            } => {
                sink.op("RD_MAC");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*latch as u64);
            }
            Instr::RdAf {
                gpr,
                channels,
                latch,
            } => {
                sink.op("RD_AF");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*latch as u64);
            }
            Instr::RdSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                sink.op("RD_SBK");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*col as u64);
            }
            Instr::CopyBkGb {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => {
                sink.op("COPY_BKGB");
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*offset as u64);
                sink.dec(*n_sub as u64);
            }
            Instr::CopyGbBk {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => {
                sink.op("COPY_GBBK");
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*offset as u64);
                sink.dec(*n_sub as u64);
            }
            Instr::WrHost {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                sink.op("WR");
                sink.dec(*gpr as u64);
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*col as u64);
            }
            Instr::RdHost {
                channels,
                bank,
                row,
                col,
            } => {
                sink.op("RD");
                sink.mask(*channels);
                sink.dec(*bank as u64);
                sink.dec(*row as u64);
                sink.dec(*col as u64);
            }
            Instr::Eoc => sink.op("EOC"),
        }
    }

    /// The bytes of this instruction's canonical line.
    pub(crate) fn text_len(&self) -> usize {
        let mut len = TextLen(0);
        self.write_text(&mut len);
        len.0
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = Vec::with_capacity(self.text_len());
        self.write_text(&mut line);
        f.write_str(std::str::from_utf8(&line).expect("canonical text is ASCII"))
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

    /// Every variant, its operands taken in order from `n`.
    fn variants(
        n: [usize; 5],
        value: u64,
        mask: u64,
        data: [u8; GPR_BYTES],
        (load_chunk, reset_latch): (bool, bool),
    ) -> Vec<Instr> {
        let [a, b, c, d, e] = n;
        let channels = mask;
        vec![
            Instr::WrCfr { idx: a, value },
            Instr::WrGpr { gpr: a, data },
            Instr::WrSbk {
                gpr: a,
                channels,
                bank: b,
                row: c,
                col: d,
            },
            Instr::WrAbk {
                gpr: a,
                channels,
                row: b,
                col: c,
            },
            Instr::WrGb {
                gpr: a,
                channels,
                offset: b,
            },
            Instr::WrBias { gpr: a, channels },
            Instr::MacAbk {
                channels,
                row: a,
                chunk: b,
                latch: c,
                n_sub: d,
                load_chunk,
                reset_latch,
            },
            Instr::MacSbk {
                channels,
                bank: a,
                row: b,
                n_sub: c,
            },
            Instr::RdMac {
                gpr: a,
                channels,
                latch: b,
            },
            Instr::RdAf {
                gpr: a,
                channels,
                latch: b,
            },
            Instr::RdSbk {
                gpr: a,
                channels,
                bank: b,
                row: c,
                col: d,
            },
            Instr::CopyBkGb {
                channels,
                bank: a,
                row: b,
                offset: c,
                n_sub: d,
            },
            Instr::CopyGbBk {
                channels,
                bank: a,
                row: b,
                offset: c,
                n_sub: e,
            },
            Instr::WrHost {
                gpr: a,
                channels,
                bank: b,
                row: c,
                col: d,
            },
            Instr::RdHost {
                channels,
                bank: a,
                row: b,
                col: c,
            },
            Instr::Eoc,
        ]
    }

    /// The canonical text of [`boundary_cases`], one line each, as the
    /// `fmt`-based renderer wrote it.
    const BOUNDARY_TEXT: &str = "\
WR_CFR 0 0
WR_GPR 0 0000000000000000000000000000000000000000000000000000000000000000
WR_SBK 0 0x0 0 0 0
WR_ABK 0 0x0 0 0
WR_GB 0 0x0 0
WR_BIAS 0 0x0
MAC_ABK 0x0 0 0 0 0 --
MAC_SBK 0x0 0 0 0
RD_MAC 0 0x0 0
RD_AF 0 0x0 0
RD_SBK 0 0x0 0 0 0
COPY_BKGB 0x0 0 0 0 0
COPY_GBBK 0x0 0 0 0 0
WR 0 0x0 0 0 0
RD 0x0 0 0 0
EOC
WR_CFR 9 9
WR_GPR 9 ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff
WR_SBK 9 0xffffffffffffffff 9 9 9
WR_ABK 9 0xffffffffffffffff 9 9
WR_GB 9 0xffffffffffffffff 9
WR_BIAS 9 0xffffffffffffffff
MAC_ABK 0xffffffffffffffff 9 9 9 9 L-
MAC_SBK 0xffffffffffffffff 9 9 9
RD_MAC 9 0xffffffffffffffff 9
RD_AF 9 0xffffffffffffffff 9
RD_SBK 9 0xffffffffffffffff 9 9 9
COPY_BKGB 0xffffffffffffffff 9 9 9 9
COPY_GBBK 0xffffffffffffffff 9 9 9 9
WR 9 0xffffffffffffffff 9 9 9
RD 0xffffffffffffffff 9 9 9
EOC
WR_CFR 10 10
WR_GPR 10 0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f
WR_SBK 10 0xa 10 10 10
WR_ABK 10 0xa 10 10
WR_GB 10 0xa 10
WR_BIAS 10 0xa
MAC_ABK 0xa 10 10 10 10 -R
MAC_SBK 0xa 10 10 10
RD_MAC 10 0xa 10
RD_AF 10 0xa 10
RD_SBK 10 0xa 10 10 10
COPY_BKGB 0xa 10 10 10 10
COPY_GBBK 0xa 10 10 10 10
WR 10 0xa 10 10 10
RD 0xa 10 10 10
EOC
WR_CFR 18446744073709551615 18446744073709551615
WR_GPR 18446744073709551615 f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0
WR_SBK 18446744073709551615 0x1 18446744073709551615 18446744073709551615 18446744073709551615
WR_ABK 18446744073709551615 0x1 18446744073709551615 18446744073709551615
WR_GB 18446744073709551615 0x1 18446744073709551615
WR_BIAS 18446744073709551615 0x1
MAC_ABK 0x1 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 LR
MAC_SBK 0x1 18446744073709551615 18446744073709551615 18446744073709551615
RD_MAC 18446744073709551615 0x1 18446744073709551615
RD_AF 18446744073709551615 0x1 18446744073709551615
RD_SBK 18446744073709551615 0x1 18446744073709551615 18446744073709551615 18446744073709551615
COPY_BKGB 0x1 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615
COPY_GBBK 0x1 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615
WR 18446744073709551615 0x1 18446744073709551615 18446744073709551615 18446744073709551615
RD 0x1 18446744073709551615 18446744073709551615 18446744073709551615
EOC
WR_CFR 1 9223372036854775808
WR_GPR 1 0009121b242d363f48515a636c757e879099a2abb4bdc6cfd8e1eaf3fc050e17
WR_SBK 1 0x10 99 100 12345
WR_ABK 1 0x10 99 100
WR_GB 1 0x10 99
WR_BIAS 1 0x10
MAC_ABK 0x10 1 99 100 12345 L-
MAC_SBK 0x10 1 99 100
RD_MAC 1 0x10 99
RD_AF 1 0x10 99
RD_SBK 1 0x10 99 100 12345
COPY_BKGB 0x10 1 99 100 12345
COPY_GBBK 0x10 1 99 100 18446744073709551614
WR 1 0x10 99 100 12345
RD 0x10 1 99 100
EOC
";

    /// Every variant at decimals 0, 9, 10 and `usize::MAX`, masks 0x0,
    /// 0xa, 0x1, 0x10 and `u64::MAX`, and payloads of all 0x00, all 0xff,
    /// all 0x0f, all 0xf0 and a counting pattern.
    fn boundary_cases() -> Vec<Instr> {
        let counting: [u8; GPR_BYTES] = std::array::from_fn(|i| (i * 9) as u8);
        let max = usize::MAX;
        [
            variants([0; 5], 0, 0x0, [0x00; GPR_BYTES], (false, false)),
            variants([9; 5], 9, u64::MAX, [0xff; GPR_BYTES], (true, false)),
            variants([10; 5], 10, 0xa, [0x0f; GPR_BYTES], (false, true)),
            variants([max; 5], u64::MAX, 0x1, [0xf0; GPR_BYTES], (true, true)),
            variants(
                [1, 99, 100, 12345, max - 1],
                1 << 63,
                0x10,
                counting,
                (true, false),
            ),
        ]
        .concat()
    }

    #[test]
    fn canonical_text_at_boundary_operands() {
        let instrs = boundary_cases();
        let program = crate::Program {
            instrs: instrs.clone(),
        };
        let rendered = program.render();
        let mut lines = rendered.lines();
        assert_eq!(lines.next(), Some(crate::program::MAGIC));
        assert_eq!(BOUNDARY_TEXT.lines().count(), instrs.len());
        for ((instr, want), line) in instrs.iter().zip(BOUNDARY_TEXT.lines()).zip(lines) {
            assert_eq!(line, want, "{instr:?}");
            assert_eq!(instr.to_string(), want, "{instr:?}");
            assert_eq!(instr.text_len(), want.len(), "{instr:?}");
            assert_eq!(&Instr::parse_line(want).unwrap(), instr, "{want}");
        }
    }

    /// The parse error for a payload of `0`s holding `bytes` from
    /// position `at` on, by the grammar: a separator splits the token, a
    /// `\n` or `#` ends it, and any other byte that is not a hex digit
    /// names its digit pair.
    fn payload_error(at: usize, bytes: &[u8]) -> String {
        let len = 2 * GPR_BYTES;
        match bytes[0] {
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c if at == 0 || at == len - 1 => {
                format!("GPR payload must be {len} hex chars, got {}", len - 1)
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => "WR_GPR takes 2 operands, got 3".into(),
            b'\n' | b'#' if at == 0 => "WR_GPR takes 2 operands, got 1".into(),
            b'\n' | b'#' => format!("GPR payload must be {len} hex chars, got {at}"),
            _ => {
                let mut digits = vec![b'0'; len];
                digits[at..at + bytes.len()].copy_from_slice(bytes);
                let pair = &digits[at & !1..(at & !1) + 2];
                format!("bad hex byte {:?}", String::from_utf8_lossy(pair))
            }
        }
    }

    #[test]
    fn payload_accepts_exactly_hex_digits_at_every_position() {
        for at in 0..2 * GPR_BYTES {
            for b in 0..=0x7fu8 {
                let mut digits = vec![b'0'; 2 * GPR_BYTES];
                digits[at] = b;
                let line = format!("WR_GPR 0 {}", std::str::from_utf8(&digits).unwrap());
                match Instr::parse_line(&line) {
                    Ok(Instr::WrGpr { data, .. }) => {
                        assert!(b.is_ascii_hexdigit(), "{line:?} parsed");
                        let nibble = NIBBLE[usize::from(b)];
                        let want = if at % 2 == 0 { nibble << 4 } else { nibble };
                        assert_eq!(data[at / 2], want, "{line:?}");
                        assert!(data.iter().enumerate().all(|(i, &d)| i == at / 2 || d == 0));
                    }
                    Ok(other) => panic!("{line:?} parsed as {other:?}"),
                    Err(msg) => {
                        assert!(!b.is_ascii_hexdigit(), "{line:?}: {msg}");
                        assert_eq!(msg, payload_error(at, &[b]), "{line:?}");
                    }
                }
            }
            // A two-byte character covering position `at` (and its right
            // neighbour; its left one at the last position).
            let start = at.min(2 * GPR_BYTES - 2);
            let line = format!(
                "WR_GPR 0 {}\u{e9}{}",
                "0".repeat(start),
                "0".repeat(2 * GPR_BYTES - 2 - start)
            );
            let msg = Instr::parse_line(&line).unwrap_err();
            assert_eq!(msg, payload_error(start, "\u{e9}".as_bytes()), "{line:?}");
        }
    }

    #[test]
    fn word_codecs_agree_with_the_byte_tables() {
        // Every byte value at every position of a word: `hex_word`
        // accepts exactly what `NIBBLE` does, and `hex_digits` inverts it.
        for at in 0..8 {
            for b in 0..=u8::MAX {
                let mut word = *b"00000000";
                word[at] = b;
                let decoded = hex_word(u64::from_le_bytes(word));
                assert_eq!(
                    decoded.is_some(),
                    NIBBLE[usize::from(b)] != NOT_HEX,
                    "{b:#x}@{at}"
                );
                if let Some(bytes) = decoded {
                    let lower = word.map(|c| c.to_ascii_lowercase());
                    assert_eq!(hex_digits(u32::from_le_bytes(bytes)).to_le_bytes(), lower);
                }
            }
        }
    }
}
