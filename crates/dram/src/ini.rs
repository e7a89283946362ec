//! DRAMsim2-style INI configuration loading.
//!
//! The paper's simulator is "based on the cycle-level DRAMsim2 simulator",
//! which reads device parameters from `.ini` files (`NUM_BANKS=16`,
//! `tRCD=13.75`, ...). This module accepts the same flavor of plain
//! `KEY=value` text — comments with `;` or `#`, case-insensitive keys,
//! unknown keys rejected loudly — so device configurations can live in
//! files rather than code.
//!
//! # Example
//!
//! ```
//! use newton_dram::ini::parse_config;
//!
//! let cfg = parse_config(
//!     "; my device\n\
//!      NUM_BANKS = 8\n\
//!      tCCD = 8\n\
//!      tFAW = 40\n",
//! )?;
//! assert_eq!(cfg.banks, 8);
//! assert_eq!(cfg.timing.t_ccd_ns, 8.0);
//! # Ok::<(), newton_dram::DramError>(())
//! ```

use crate::config::DramConfig;
use crate::error::DramError;

/// Parses a DRAMsim2-flavored INI string into a [`DramConfig`].
///
/// Unset keys keep the HBM2E-like defaults, so a file needs to name only
/// what differs. Recognized keys (case-insensitive):
///
/// `NUM_BANKS`, `NUM_ROWS`, `NUM_COLS`, `COL_IO_BITS`, `tCK`, `tRCD`,
/// `tRP`, `tRAS`, `tCCD`, `tRRD`, `tFAW`, `tRTP`, `tWR`, `tAA` (alias
/// `tCL`), `tREFI`, `tRFC`, `tCMD`.
///
/// # Errors
///
/// [`DramError::InvalidConfig`] for malformed lines, unknown keys,
/// unparsable values, or a configuration that fails validation.
pub fn parse_config(text: &str) -> Result<DramConfig, DramError> {
    let mut cfg = DramConfig::hbm2e_like();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with('[') {
            continue; // blank, or a section header we accept and ignore
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(DramError::InvalidConfig(format!(
                "line {}: expected KEY=value, got {raw:?}",
                lineno + 1
            )));
        };
        let key_norm = key.trim().to_ascii_uppercase();
        let value = value.trim();
        let bad_value = |what: &str| {
            DramError::InvalidConfig(format!(
                "line {}: invalid {what} value {value:?} for {key_norm}",
                lineno + 1
            ))
        };
        let as_usize = |v: &str| v.parse::<usize>().map_err(|_| bad_value("integer"));
        let as_f64 = |v: &str| v.parse::<f64>().map_err(|_| bad_value("numeric"));
        match key_norm.as_str() {
            "NUM_BANKS" => cfg.banks = as_usize(value)?,
            "NUM_ROWS" => cfg.rows_per_bank = as_usize(value)?,
            "NUM_COLS" => cfg.cols_per_row = as_usize(value)?,
            "COL_IO_BITS" => cfg.col_io_bits = as_usize(value)?,
            "TCK" => cfg.timing.tck_ns = as_f64(value)?,
            "TRCD" => cfg.timing.t_rcd_ns = as_f64(value)?,
            "TRP" => cfg.timing.t_rp_ns = as_f64(value)?,
            "TRAS" => cfg.timing.t_ras_ns = as_f64(value)?,
            "TCCD" => cfg.timing.t_ccd_ns = as_f64(value)?,
            "TRRD" => cfg.timing.t_rrd_ns = as_f64(value)?,
            "TFAW" => cfg.timing.t_faw_ns = as_f64(value)?,
            "TRTP" => cfg.timing.t_rtp_ns = as_f64(value)?,
            "TWR" => cfg.timing.t_wr_ns = as_f64(value)?,
            "TAA" | "TCL" => cfg.timing.t_aa_ns = as_f64(value)?,
            "TREFI" => cfg.timing.t_refi_ns = as_f64(value)?,
            "TRFC" => cfg.timing.t_rfc_ns = as_f64(value)?,
            "TCMD" => cfg.timing.t_cmd_ns = as_f64(value)?,
            other => {
                return Err(DramError::InvalidConfig(format!(
                    "line {}: unknown key {other:?}",
                    lineno + 1
                )))
            }
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_survive_an_empty_file() {
        let cfg = parse_config("").unwrap();
        assert_eq!(cfg, DramConfig::hbm2e_like());
    }

    #[test]
    fn overrides_comments_and_case_are_handled() {
        let cfg = parse_config(
            "# GDDR-ish overrides\n\
             [device]\n\
             num_banks = 8   ; fewer banks\n\
             TCCD=2\n\
             tFaw = 24\n\
             \n",
        )
        .unwrap();
        assert_eq!(cfg.banks, 8);
        assert_eq!(cfg.timing.t_ccd_ns, 2.0);
        assert_eq!(cfg.timing.t_faw_ns, 24.0);
        // Untouched keys keep HBM2E defaults.
        assert_eq!(cfg.timing.t_rcd_ns, 14.0);
    }

    #[test]
    fn tcl_is_an_alias_for_taa() {
        let cfg = parse_config("tCL=22\n").unwrap();
        assert_eq!(cfg.timing.t_aa_ns, 22.0);
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = parse_config("NUM_BANKS=16\nbogus line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_config("WHATEVER=3\n").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        let err = parse_config("NUM_BANKS=sixteen\n").unwrap_err();
        assert!(err.to_string().contains("invalid integer"), "{err}");
        let err = parse_config("tRCD=fast\n").unwrap_err();
        assert!(err.to_string().contains("invalid numeric"), "{err}");
    }

    #[test]
    fn invalid_resulting_configs_fail_validation() {
        // tRAS < tRCD is caught by the existing validator.
        let err = parse_config("tRAS=5\n").unwrap_err();
        assert!(err.to_string().contains("tRAS"), "{err}");
    }
}
