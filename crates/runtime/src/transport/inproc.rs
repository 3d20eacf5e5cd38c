//! The in-process fabric: one bounded channel per reducer partition.
//!
//! This is the original (and default) shuffle transport — segments move as
//! `Arc`-backed [`SegmentBuf`](onepass_core::SegmentBuf)s, so a send is two
//! refcount bumps and control messages are broadcast by cloning.

use crossbeam::channel::Sender;

use super::SegmentSink;
use crate::shuffle::{Segment, ShuffleMsg};

/// In-proc channel sink: routes segments by partition, broadcasts control
/// messages to every partition. Send errors mean the reducer hung up (job
/// aborting) and are ignored; the map worker notices via its own channel
/// teardown.
pub(crate) struct InProcSink {
    senders: Vec<Sender<ShuffleMsg>>,
}

impl InProcSink {
    pub(crate) fn new(senders: Vec<Sender<ShuffleMsg>>) -> Self {
        InProcSink { senders }
    }
}

impl SegmentSink for InProcSink {
    fn send_segment(&self, seg: Segment) {
        let _ = self.senders[seg.partition].send(ShuffleMsg::Segment(seg));
    }

    fn map_done(&self, map_task: usize, attempt: usize) {
        for s in &self.senders {
            let _ = s.send(ShuffleMsg::MapDone { map_task, attempt });
        }
    }

    fn abort(&self) {
        for s in &self.senders {
            let _ = s.send(ShuffleMsg::Abort);
        }
    }

    fn input_exhausted(&self, total_map_tasks: usize) {
        for s in &self.senders {
            let _ = s.send(ShuffleMsg::InputExhausted { total_map_tasks });
        }
    }
}
