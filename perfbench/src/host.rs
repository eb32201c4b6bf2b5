//! Host readings from `/proc`: the process's peak resident set, and the
//! calling thread's on-CPU and run-queue time, which tell a run slowed
//! by the shared host apart from a slow program.

/// `VmHWM` of this process, in MB (2^20 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Time the calling thread spent on a CPU and waiting on a run queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    pub oncpu_s: f64,
    pub runq_wait_s: f64,
}

impl SchedStat {
    /// The calling thread's totals so far (`/proc/thread-self/schedstat`).
    pub fn now() -> Result<SchedStat, String> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat")
            .map_err(|e| format!("reading /proc/thread-self/schedstat: {e}"))?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(oncpu)), Some(Ok(runq))) => Ok(SchedStat {
                oncpu_s: oncpu as f64 / 1e9,
                runq_wait_s: runq as f64 / 1e9,
            }),
            _ => Err(format!(
                "malformed /proc/thread-self/schedstat: `{}`",
                text.trim()
            )),
        }
    }

    /// The time accrued since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            oncpu_s: self.oncpu_s - earlier.oncpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }
}
