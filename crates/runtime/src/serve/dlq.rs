//! Per-session dead-letter queue with bounded retry.
//!
//! The plan layer already counts and bounds *decode* errors centrally;
//! serving promotes poison handling to a real queue: a record whose map
//! function panics is quarantined here instead of killing the session
//! (and every tenant subscribed to it), retried a bounded number of times at later feed boundaries
//! (transient poisons — e.g. a dependency hiccup — recover), and finally
//! declared dead. Dead records are retained (bounded) for inspection.

use std::collections::VecDeque;

/// One quarantined record.
#[derive(Debug, Clone)]
pub struct DlqEntry {
    /// The raw input record that poisoned the session.
    pub record: Vec<u8>,
    /// Failed attempts so far (the initial feed counts as one).
    pub attempts: u32,
}

/// Dead-letter queue configuration.
#[derive(Debug, Clone, Copy)]
pub struct DlqConfig {
    /// Retries after the initial failure before a record is dead.
    pub max_retries: u32,
    /// Most recent dead records retained for inspection.
    pub keep_dead: usize,
}

impl Default for DlqConfig {
    fn default() -> Self {
        DlqConfig {
            max_retries: 2,
            keep_dead: 64,
        }
    }
}

/// A bounded-retry dead-letter queue (one per session; the shard worker
/// owns it together with the session's cascade, so no locking).
#[derive(Debug, Default)]
pub struct DeadLetterQueue {
    config: DlqConfig,
    pending: VecDeque<DlqEntry>,
    dead: VecDeque<DlqEntry>,
    poisoned_total: u64,
    retries_total: u64,
    recovered_total: u64,
    dead_total: u64,
}

impl DeadLetterQueue {
    /// An empty queue.
    pub fn new(config: DlqConfig) -> DeadLetterQueue {
        DeadLetterQueue {
            config,
            ..Default::default()
        }
    }

    /// Quarantine a record whose first feed attempt failed.
    pub fn quarantine(&mut self, record: Vec<u8>) {
        self.poisoned_total += 1;
        let entry = DlqEntry {
            record,
            attempts: 1,
        };
        if self.config.max_retries == 0 {
            self.bury(entry);
        } else {
            self.pending.push_back(entry);
        }
    }

    /// Retry every pending record once through `feed_one` (true = the
    /// record was applied). Exhausted records move to the dead list.
    /// Returns how many records recovered this sweep.
    pub fn retry_sweep(&mut self, mut feed_one: impl FnMut(&[u8]) -> bool) -> usize {
        let mut recovered = 0;
        for _ in 0..self.pending.len() {
            let Some(mut entry) = self.pending.pop_front() else {
                break;
            };
            self.retries_total += 1;
            if feed_one(&entry.record) {
                recovered += 1;
                self.recovered_total += 1;
                continue;
            }
            entry.attempts += 1;
            if entry.attempts > self.config.max_retries {
                self.bury(entry);
            } else {
                self.pending.push_back(entry);
            }
        }
        recovered
    }

    /// Sweep until every pending record either recovers or exhausts its
    /// retries — the close-time drain, so poisons near the end of the
    /// stream still get their full retry budget.
    pub fn drain(&mut self, mut feed_one: impl FnMut(&[u8]) -> bool) {
        // Terminates: every sweep either recovers a record or bumps its
        // attempt count, and attempts > max_retries buries it.
        while !self.pending.is_empty() {
            self.retry_sweep(&mut feed_one);
        }
    }

    fn bury(&mut self, entry: DlqEntry) {
        self.dead_total += 1;
        self.dead.push_back(entry);
        while self.dead.len() > self.config.keep_dead {
            self.dead.pop_front();
        }
    }

    /// Records quarantined, ever.
    pub fn poisoned_total(&self) -> u64 {
        self.poisoned_total
    }

    /// Retry attempts issued, ever.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Records that recovered on retry.
    pub fn recovered_total(&self) -> u64 {
        self.recovered_total
    }

    /// Records declared dead after exhausting retries.
    pub fn dead_total(&self) -> u64 {
        self.dead_total
    }

    /// Currently quarantined (retry-eligible) records.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Retained dead records, oldest first.
    pub fn dead(&self) -> impl Iterator<Item = &DlqEntry> {
        self.dead.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_poison_recovers_after_retries() {
        let mut dlq = DeadLetterQueue::new(DlqConfig {
            max_retries: 3,
            keep_dead: 8,
        });
        dlq.quarantine(b"flaky".to_vec());
        // Fails twice more, then succeeds on the third retry.
        let mut calls = 0;
        while dlq.pending() > 0 {
            dlq.retry_sweep(|_| {
                calls += 1;
                calls >= 3
            });
        }
        assert_eq!(dlq.recovered_total(), 1);
        assert_eq!(dlq.dead_total(), 0);
        assert_eq!(dlq.retries_total(), 3);
    }

    #[test]
    fn permanent_poison_exhausts_and_dies() {
        let mut dlq = DeadLetterQueue::new(DlqConfig {
            max_retries: 2,
            keep_dead: 8,
        });
        dlq.quarantine(b"poison".to_vec());
        dlq.drain(|_| false);
        assert_eq!(dlq.pending(), 0);
        assert_eq!(dlq.dead_total(), 1);
        assert_eq!(dlq.recovered_total(), 0);
        // Initial failure + 2 retries = 3 attempts recorded on the corpse.
        assert_eq!(dlq.dead().next().unwrap().attempts, 3);
    }

    #[test]
    fn zero_retries_buries_immediately_and_dead_list_is_bounded() {
        let mut dlq = DeadLetterQueue::new(DlqConfig {
            max_retries: 0,
            keep_dead: 2,
        });
        for i in 0..5u8 {
            dlq.quarantine(vec![i]);
        }
        assert_eq!(dlq.pending(), 0);
        assert_eq!(dlq.dead_total(), 5);
        let kept: Vec<u8> = dlq.dead().map(|e| e.record[0]).collect();
        assert_eq!(kept, vec![3, 4], "only the most recent corpses kept");
    }
}
