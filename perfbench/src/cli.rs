//! Command-line parsing. Every value is checked where it enters: a
//! malformed or missing seed is an error, never a silent default.

use crate::workloads::Name;

pub const USAGE: &str = "usage: perfbench --workload <fleet_512|engine_chat|offline_swa> \
                         --seed <u64> --seconds <s> [--trace <0|1>]";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Name,
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let repeated = match flag.as_str() {
                "--workload" => workload.replace(Name::parse(&value)?).is_some(),
                "--seed" => seed.replace(parse_seed(&value)?).is_some(),
                "--seconds" => seconds.replace(parse_seconds(&value)?).is_some(),
                "--trace" => trace.replace(parse_trace(&value)?).is_some(),
                _ => return Err(format!("unknown argument `{flag}`")),
            };
            if repeated {
                return Err(format!("`{flag}` given twice"));
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn parse_seed(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("--seed must be an unsigned 64-bit integer, got `{value}`"))
}

fn parse_seconds(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => Ok(s),
        _ => Err(format!(
            "--seconds must be a number in (0, 600], got `{value}`"
        )),
    }
}

fn parse_trace(value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("--trace must be 0 or 1, got `{value}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_every_flag() {
        let args =
            parse("--workload engine_chat --seed 18446744073709551615 --seconds 10 --trace 1")
                .unwrap();
        assert_eq!(args.workload, Name::EngineChat);
        assert_eq!(args.seed, u64::MAX);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(
            !parse("--workload fleet_512 --seed 3 --seconds 0.5")
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_malformed_or_missing_seeds() {
        for seed in ["42x", "-1", "4.2", "", "0x10", "18446744073709551616"] {
            let line = format!("--workload fleet_512 --seconds 1 --seed {seed}");
            assert!(parse(&line).is_err(), "seed `{seed}` must be rejected");
        }
        assert!(parse("--workload fleet_512 --seconds 1").is_err());
        assert!(parse("--workload fleet_512 --seconds 1 --seed").is_err());
    }

    #[test]
    fn rejects_everything_else_malformed() {
        for line in [
            "--workload fleet --seed 1 --seconds 1",
            "--workload fleet_512 --seed 1 --seconds 0",
            "--workload fleet_512 --seed 1 --seconds nan",
            "--workload fleet_512 --seed 1 --seconds 1 --trace 2",
            "--workload fleet_512 --seed 1 --seed 2 --seconds 1",
            "--workload fleet_512 --seed 1 --seconds 1 --quick 1",
            "--seed 1 --seconds 1",
        ] {
            assert!(parse(line).is_err(), "`{line}` must be rejected");
        }
    }
}
