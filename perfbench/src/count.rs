//! A trace sink that only counts: engine steps, batch and generated
//! tokens, retention stores, and admission queue waits.

use alisa_serve::{Event, EventKind, TraceSink};

#[derive(Debug, Default)]
pub struct CountingSink {
    /// Engine (or replica) steps.
    pub steps: u64,
    /// Requests in the batch, summed over steps (prefills + decodes).
    pub batch_tokens: u64,
    /// Tokens generated by finished requests.
    pub generated: u64,
    /// Session prefixes stored for a later turn.
    pub stores: u64,
    /// Queue wait of every admission, simulated seconds.
    pub queue_waits: Vec<f64>,
}

impl TraceSink for CountingSink {
    fn emit(&mut self, event: &Event) {
        match &event.kind {
            EventKind::Step {
                prefills, decodes, ..
            } => {
                self.steps += 1;
                self.batch_tokens += (prefills + decodes) as u64;
            }
            EventKind::Finished { generated, .. } => self.generated += *generated as u64,
            EventKind::RetentionStore { .. } => self.stores += 1,
            EventKind::Admitted { queue_wait_s, .. } => self.queue_waits.push(*queue_wait_s),
            _ => {}
        }
    }
}

impl CountingSink {
    /// Nearest-rank 99th percentile of the admission queue waits.
    pub fn queue_wait_p99_s(&self) -> f64 {
        let mut waits = self.queue_waits.clone();
        if waits.is_empty() {
            return 0.0;
        }
        waits.sort_by(f64::total_cmp);
        let rank = ((0.99 * waits.len() as f64).ceil() as usize).clamp(1, waits.len());
        waits[rank - 1]
    }
}
