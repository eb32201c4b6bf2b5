//! Output digests: two passes agree iff their outputs are identical.
//!
//! Reports are hashed through their canonical text, except the
//! timeline samples, whose exact bits are hashed directly: a
//! 512-replica run carries about a million of them, and formatting
//! them as text would cost about half a pass.

use alisa_memsim::StepRecord;
use alisa_sched::RunReport;
use alisa_serve::{RouterReport, ServeReport, ServeSample};

/// 64-bit FNV-1a over bytes, and the same mixing step over whole words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(PRIME);
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    /// A serving report: its canonical text with the timeline taken
    /// out, then the timeline samples.
    pub fn serve_report(&mut self, mut report: ServeReport) {
        let timeline = std::mem::take(&mut report.timeline);
        self.bytes(report.canonical_text().as_bytes());
        self.samples(&timeline);
    }

    /// A fleet report: the header and fleet report, then each replica's.
    pub fn router_report(&mut self, mut report: RouterReport) {
        let replicas = std::mem::take(&mut report.replicas);
        let timeline = std::mem::take(&mut report.fleet.timeline);
        self.bytes(report.canonical_text().as_bytes());
        self.samples(&timeline);
        for (i, replica) in replicas.into_iter().enumerate() {
            self.word(i as u64);
            self.serve_report(replica);
        }
    }

    /// An offline scheduler run: outcome, workload and every step record.
    pub fn run_report(&mut self, report: &RunReport) {
        self.bytes(report.summary().as_bytes());
        self.bytes(format!("{:?} {:?}", report.outcome, report.workload).as_bytes());
        let records = report.timeline.records();
        self.word(records.len() as u64);
        for r in records {
            self.step_record(r);
        }
    }

    fn step_record(&mut self, r: &StepRecord) {
        self.word(r.step as u64);
        self.word(r.phase as u64);
        for t in [
            r.mha_time,
            r.ffn_time,
            r.recompute_time,
            r.load_time,
            r.store_time,
            r.quant_time,
            r.selection_time,
        ] {
            self.word(t.to_bits());
        }
        self.word(r.gpu_mem);
        self.word(r.cpu_mem);
    }

    fn samples(&mut self, samples: &[ServeSample]) {
        self.word(samples.len() as u64);
        for s in samples {
            self.word(s.t.to_bits());
            self.word(s.queue_depth as u64);
            self.word(s.running as u64);
            self.word(s.kv_bytes);
        }
    }
}
