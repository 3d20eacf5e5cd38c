//! MapReduce execution models on the simulated cluster: StockHadoop,
//! Hop (MapReduce Online), HashOnePass (the paper's proposed system).
//!
//! One state machine runs all three. Everything that tells the systems
//! apart is one row of `SYSTEMS`: how a map task groups its output
//! (sort, half a sort, or hash; a reducer sorts what the map side left
//! as data arrives), whether the map-output write gates task completion,
//! how finely output is pushed, and the reduce-side group-by — sort-merge
//! with its snapshot fractions, or hash with its cold spill.
//!
//! A map attempt is a disk → CPU → disk chain, and so is each reducer
//! pass; every event names the step of a chain that just finished, and
//! its handler issues the next one. Sort-merge follows Fig. 1 stage by
//! stage: block read → map fn + block sort → map-output write → shuffle
//! → reducer buffer → spill → progressive multi-pass merge (factor F) →
//! blocking final merge → reduce → output write. HOP pushes eagerly,
//! splits the sort between map and reduce sides and re-reads all
//! received data at snapshot points. Hash removes the sort and the merge:
//! incremental per-record CPU as data arrives, bounded cold-key spill,
//! short final emit.

use std::collections::VecDeque;
use std::time::Duration;

use onepass_core::config::{DEFAULT_MERGE_FACTOR, HOP_SNAPSHOTS};
use onepass_core::trace::{LocalTracer, Tracer, Track, LANE};

use crate::cluster::{ClusterSpec, StorageConfig};
use crate::dfs::Dfs;
use crate::engine::{secs, EventPayload, EventQueue, Resource, SimTime};
use crate::model::{CostModel, DeviceProfile, WorkloadProfile};
use crate::report::SimReport;
use crate::sampler::{Counter, Gauge, Sampler};

/// Which system's execution model to simulate (Table III's three rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemType {
    /// Hadoop: sort-merge, pull shuffle, blocking multi-pass merge.
    StockHadoop,
    /// MapReduce Online: pipelined sort-merge with periodic snapshots.
    Hop,
    /// The paper's hash-based one-pass system.
    HashOnePass,
}

impl SystemType {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        self.model().label
    }

    /// This system's row of [`SYSTEMS`].
    fn model(self) -> &'static ExecModel {
        SYSTEMS
            .iter()
            .find(|m| m.system == self)
            .expect("every system has a row")
    }
}

/// How a map task groups its output before it leaves the task. The cost
/// follows the *pre-combine* emitted volume (the input block scaled by
/// the workload's sort weight): the grouping runs over every emitted
/// record before the combine collapses them.
#[derive(Debug, Clone, Copy)]
enum MapGrouping {
    /// This share of a full (partition, key) sort.
    Sort(f64),
    /// Hash partitioning and combine: no comparisons, no permutation.
    Hash,
}

/// How a reducer groups what it receives.
#[derive(Debug, Clone, Copy)]
enum GroupBy {
    /// Buffer, spill sorted runs, merge them F at a time in the
    /// background, and merge what is left before the reduce. At each
    /// fraction of maps done, re-read everything for a snapshot.
    SortMerge { snapshots: &'static [f64] },
    /// Update in-memory state as data arrives. The cold fraction spills
    /// once, in chunks of `cold_chunk_mb`, and is resolved at the end.
    Hash { cold_chunk_mb: f64 },
}

/// One system's execution model: everything that tells the three systems
/// apart on the simulated cluster.
#[derive(Debug)]
struct ExecModel {
    system: SystemType,
    label: &'static str,
    map_grouping: MapGrouping,
    /// Whether the map-output write gates task completion and the push.
    /// The hash system persists map output with asynchronous I/O
    /// (§III-B.2): the write occupies the disk and gates nothing.
    write_gates_map: bool,
    /// Transfers each pushed segment is split into, each paying the
    /// NIC's per-request overhead. HOP "transmits map output eagerly in
    /// finer granularity and hence increases network cost" (§III-D).
    push_chunks: usize,
    group_by: GroupBy,
}

/// The three systems, one row each.
static SYSTEMS: [ExecModel; 3] = [
    ExecModel {
        system: SystemType::StockHadoop,
        label: "stock-hadoop",
        map_grouping: MapGrouping::Sort(1.0),
        write_gates_map: true,
        push_chunks: 1,
        group_by: GroupBy::SortMerge { snapshots: &[] },
    },
    // HOP pipelines the push but, being Hadoop underneath, still
    // persists map output synchronously.
    ExecModel {
        system: SystemType::Hop,
        label: "mapreduce-online",
        map_grouping: MapGrouping::Sort(0.5),
        write_gates_map: true,
        push_chunks: 6,
        group_by: GroupBy::SortMerge {
            snapshots: HOP_SNAPSHOTS,
        },
    },
    ExecModel {
        system: SystemType::HashOnePass,
        label: "hash-one-pass",
        map_grouping: MapGrouping::Hash,
        write_gates_map: false,
        push_chunks: 1,
        group_by: GroupBy::Hash {
            cold_chunk_mb: 64.0,
        },
    },
];

/// A complete simulated-job specification.
#[derive(Debug, Clone)]
pub struct SimJobSpec {
    /// Execution model.
    pub system: SystemType,
    /// Cluster hardware/topology.
    pub cluster: ClusterSpec,
    /// CPU cost model.
    pub cost: CostModel,
    /// Workload volume profile.
    pub workload: WorkloadProfile,
    /// Reducer shuffle-buffer capacity, MB (~0.66 of the paper's 1 GB
    /// task heap, Hadoop's `mapred.job.shuffle.input.buffer.percent`).
    pub reduce_mem_mb: f64,
    /// Multi-pass merge factor F.
    pub merge_factor: usize,
    /// Fault and straggler injection. Retries mirror the engine's
    /// `max_attempts` and `FaultPlan`; stragglers and speculation model
    /// Hadoop's, which the engine does not have.
    pub faults: SimFaults,
    /// A pooled-memory cost model: pool the reducer shuffle buffers
    /// job-wide, spill only on *global* pressure, and pick the largest
    /// consumer as the spill victim (the rule of the serving tier's
    /// governor; the engine's batch reducers own their budgets).
    /// Default off (per-reducer private caps, the Hadoop behaviour).
    pub adaptive_memory: bool,
}

impl SimJobSpec {
    /// Paper-default spec for `system` × `workload` on `cluster`.
    pub fn new(system: SystemType, cluster: ClusterSpec, workload: WorkloadProfile) -> Self {
        SimJobSpec {
            system,
            cluster,
            cost: CostModel::calibrated(),
            workload,
            reduce_mem_mb: 660.0,
            merge_factor: DEFAULT_MERGE_FACTOR,
            faults: SimFaults::default(),
            adaptive_memory: false,
        }
    }
}

/// Fault and straggler plan for a simulated job — the cost-model mirror
/// of the engine's task-level fault tolerance. Failed attempts waste the
/// work they did before dying and are rescheduled with a fresh attempt
/// id; stragglers run slow until (optionally) a speculative clone
/// overtakes them; reduce failures replay the final phase.
///
/// The simulator models *successful* recovery: planned failure counts
/// are clamped to `max_attempts - 1` at world construction so every run
/// completes (an exhausted-retries run has no defined completion time).
#[derive(Debug, Clone)]
pub struct SimFaults {
    /// `(task, failures)`: the first `failures` attempts of map `task`
    /// die right after their map compute finishes — the read and CPU
    /// cost is paid, no output is written — and the task is requeued.
    pub map_failures: Vec<(usize, usize)>,
    /// `(task, factor)`: attempt 0 of map `task` takes `factor`× the
    /// normal compute time. Re-executions and clones run at full speed
    /// (the slowdown models a sick node, not a slow task).
    pub map_stragglers: Vec<(usize, f64)>,
    /// `(reducer, failures)`: the first `failures` attempts of the
    /// reducer's final phase fail after the reduce CPU pass and replay
    /// from the final-merge read (re-paying disk and CPU).
    pub reduce_failures: Vec<(usize, usize)>,
    /// Attempts allowed per task, `>= 1` (engine `EngineConfig::max_attempts`).
    pub max_attempts: usize,
    /// Clone straggling maps once their elapsed time exceeds
    /// `slow_factor` × the median completed-map duration; the first
    /// finisher commits, the loser's completion is discarded.
    pub speculation: bool,
    /// Straggler threshold multiplier for speculation.
    pub slow_factor: f64,
}

impl Default for SimFaults {
    fn default() -> Self {
        SimFaults {
            map_failures: Vec::new(),
            map_stragglers: Vec::new(),
            reduce_failures: Vec::new(),
            max_attempts: 4,
            speculation: false,
            slow_factor: 2.0,
        }
    }
}

impl SimFaults {
    fn map_attempt_fails(&self, task: usize, attempt: usize) -> bool {
        let budget = self.max_attempts.saturating_sub(1);
        self.map_failures
            .iter()
            .any(|&(t, n)| t == task && attempt < n.min(budget))
    }

    fn reduce_attempt_fails(&self, reducer: usize, attempt: usize) -> bool {
        let budget = self.max_attempts.saturating_sub(1);
        self.reduce_failures
            .iter()
            .any(|&(r, n)| r == reducer && attempt < n.min(budget))
    }

    fn map_slowdown(&self, task: usize, attempt: usize) -> f64 {
        if attempt != 0 {
            return 1.0;
        }
        self.map_stragglers
            .iter()
            .find(|&&(t, _)| t == task)
            .map_or(1.0, |&(_, f)| f.max(1.0))
    }
}

/// What a finished resource request (or a zero-delay event) completes.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// A step of attempt `attempt` of map `task`. The attempt id keeps
    /// retried and speculative executions of one task apart.
    Map {
        task: usize,
        attempt: usize,
        step: Step,
    },
    /// A step of a pass `reducer` runs over `mb`.
    Pass {
        reducer: usize,
        pass: Pass,
        step: Step,
        mb: f64,
    },
    /// `mb` of a pushed segment reached `reducer`; the segment counter
    /// advances only when `last` completes the segment.
    Arrive { reducer: usize, mb: f64, last: bool },
    /// Work that gates nothing: HOP's reduce-side sort, an asynchronous
    /// map-output write.
    Sink,
}

/// The step of a task's disk → CPU → disk chain that just finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A remote disk read the block; it crosses the network next.
    Fetched,
    /// The block crossed the network; the CPU pass is next.
    Received,
    /// A local disk read the input; the CPU pass is next.
    Read,
    /// The CPU pass is done; the output write is next.
    Computed,
    /// The output crossed the network to a storage node; its disk writes
    /// it next.
    Shipped,
    /// The output is on disk.
    Written,
}

/// A reducer's passes over its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Write a sorted run (sort-merge) or a cold chunk (hash).
    Spill,
    /// Merge the smallest runs into one (sort-merge).
    Merge,
    /// Re-read everything for an early answer (HOP).
    Snapshot,
    /// Apply arrived data to the in-memory state (hash).
    Update,
    /// The final merge or cold resolve, the reduce and the output write.
    Final,
}

/// A reducer's group-by state.
#[derive(Debug)]
enum Group {
    SortMerge {
        buffered_mb: f64,
        runs: Vec<f64>,
        merging: bool,
        snapshotting: bool,
    },
    Hash {
        cold_pending_mb: f64,
        cold_total_mb: f64,
    },
}

#[derive(Debug)]
struct Reducer {
    node: usize,
    /// Not yet in the final phase.
    shuffling: bool,
    segments_arrived: usize,
    /// Passes in flight the final phase waits for: spills, merges,
    /// snapshots and updates.
    pending: usize,
    /// Final-phase attempt id (bumped by injected reduce failures).
    attempt: usize,
    /// MB the final phase reads from disk — remembered so an injected
    /// failure can replay the read.
    final_read_mb: f64,
    group: Group,
}

impl Reducer {
    fn buffered_mb(&self) -> f64 {
        match self.group {
            Group::SortMerge { buffered_mb, .. } => buffered_mb,
            Group::Hash { .. } => 0.0,
        }
    }
}

/// One map task's attempts.
#[derive(Debug, Clone, Default)]
struct MapTask {
    /// Queued or running (a failed task is unscheduled again).
    scheduled: bool,
    /// Node and start time of each attempt, by attempt id.
    attempts: Vec<(usize, SimTime)>,
    /// Attempts in flight.
    running: usize,
    /// Whether an attempt has committed the task's output (the first to
    /// finish wins; later completions are discarded).
    committed: bool,
    /// Speculative clone attempt id, if one was launched.
    clone: Option<usize>,
}

/// Resource index layout per compute node plus storage nodes.
struct ResIdx {
    compute_nodes: usize,
    storage_nodes: usize,
    /// Under `SingleHdd`, DFS and intermediate data share one physical
    /// disk — the §III-C contention the SSD experiment relieves.
    shared_disk: bool,
}

impl ResIdx {
    fn cpu(&self, node: usize) -> usize {
        node
    }
    fn data_disk(&self, node: usize) -> usize {
        self.compute_nodes + node
    }
    fn inter_disk(&self, node: usize) -> usize {
        if self.shared_disk {
            self.data_disk(node)
        } else {
            2 * self.compute_nodes + node
        }
    }
    fn nic(&self, node: usize) -> usize {
        3 * self.compute_nodes + node
    }
    fn storage_disk(&self, s: usize) -> usize {
        4 * self.compute_nodes + s
    }
}

/// A sim time as a trace timestamp.
fn at(t: SimTime) -> Duration {
    Duration::from_micros(t)
}

impl Action {
    fn pass(reducer: usize, pass: Pass, step: Step, mb: f64) -> Action {
        Action::Pass {
            reducer,
            pass,
            step,
            mb,
        }
    }
}

struct World {
    spec: SimJobSpec,
    model: &'static ExecModel,
    q: EventQueue<Action>,
    res: Vec<Resource<Action>>,
    idx: ResIdx,
    sampler: Sampler,
    // Map scheduling (locality-aware over the DFS placement).
    dfs: Dfs,
    /// Per-node queues of tasks whose block is local (may contain
    /// already-scheduled tasks; filtered on pop).
    node_queues: Vec<VecDeque<usize>>,
    /// Global FIFO fallback for work stealing (remote reads).
    global_queue: VecDeque<usize>,
    maps: Vec<MapTask>,
    free_slots: Vec<usize>,
    pending_count: usize,
    maps_done: usize,
    local_maps: usize,
    /// Durations of committed maps (straggler-threshold median).
    map_durations: Vec<SimTime>,
    reducers: Vec<Reducer>,
    reducers_done: usize,
    map_out_block_mb: f64,
    /// Snapshot thresholds (maps_done counts), ascending.
    snapshot_plan: Vec<usize>,
    completion: Option<SimTime>,
    /// The totals the run adds up as it goes.
    report: SimReport,
    /// Trace collection point; events are stamped with sim time so a
    /// simulated run renders on the same Chrome-trace schema as a real
    /// engine run.
    tracer: Tracer,
}

impl World {
    fn new(spec: SimJobSpec, tracer: Tracer) -> Self {
        let cluster = &spec.cluster;
        let idx = ResIdx {
            compute_nodes: cluster.compute_nodes(),
            storage_nodes: cluster.storage_nodes(),
            shared_disk: cluster.storage == StorageConfig::SingleHdd,
        };
        let (nodes, storage_nodes) = (idx.compute_nodes, idx.storage_nodes);
        // A core serves one CPU-second per second.
        let core = DeviceProfile {
            bandwidth_mb_s: 1.0,
            overhead_s: 0.0,
        };
        // Resources in the order `ResIdx` numbers them.
        let mut res = Vec::new();
        for (kind, count, servers, device) in [
            ("cpu", nodes, cluster.cores_per_node, core),
            ("datadisk", nodes, 1, cluster.data_disk),
            ("interdisk", nodes, 1, cluster.inter_disk),
            ("nic", nodes, 1, cluster.nic),
            ("storagedisk", storage_nodes, 1, cluster.data_disk),
        ] {
            for i in 0..count {
                let r = Resource::new(
                    res.len(),
                    format!("{kind}{i}"),
                    device.bandwidth_mb_s,
                    servers,
                );
                res.push(r.with_overhead(secs(device.overhead_s)));
            }
        }

        let report = SimReport::start(&spec);
        let total_maps = report.map_tasks;
        // Blocks live on the data-bearing nodes: the compute nodes
        // normally, the storage nodes under the separated architecture.
        let dfs = if cluster.dfs_is_remote() {
            Dfs::place(total_maps, storage_nodes.max(1))
        } else {
            Dfs::place(total_maps, nodes)
        };
        let mut node_queues = vec![VecDeque::new(); nodes];
        if !cluster.dfs_is_remote() {
            for (n, queue) in node_queues.iter_mut().enumerate() {
                *queue = dfs.primary_blocks(n).collect();
            }
        }
        let model = spec.system.model();
        let reducers = (0..spec.workload.reducers)
            .map(|r| Reducer {
                node: r % nodes,
                shuffling: true,
                segments_arrived: 0,
                pending: 0,
                attempt: 0,
                final_read_mb: 0.0,
                group: match model.group_by {
                    GroupBy::SortMerge { .. } => Group::SortMerge {
                        buffered_mb: 0.0,
                        runs: Vec::new(),
                        merging: false,
                        snapshotting: false,
                    },
                    GroupBy::Hash { .. } => Group::Hash {
                        cold_pending_mb: 0.0,
                        cold_total_mb: 0.0,
                    },
                },
            })
            .collect();
        let snapshots = match model.group_by {
            GroupBy::SortMerge { snapshots } => snapshots,
            GroupBy::Hash { .. } => &[],
        };
        let mut snapshot_plan: Vec<usize> = snapshots
            .iter()
            .map(|f| ((f * total_maps as f64).ceil() as usize).max(1))
            .collect();
        snapshot_plan.sort_unstable();
        snapshot_plan.dedup();

        World {
            model,
            q: EventQueue::new(),
            res,
            sampler: Sampler::new(),
            dfs,
            node_queues,
            global_queue: (0..total_maps).collect(),
            maps: vec![MapTask::default(); total_maps],
            free_slots: vec![cluster.map_slots_per_node; nodes],
            pending_count: total_maps,
            maps_done: 0,
            local_maps: 0,
            map_durations: Vec::new(),
            reducers,
            reducers_done: 0,
            map_out_block_mb: cluster.block_mb * spec.workload.map_output_ratio,
            snapshot_plan,
            completion: None,
            report,
            tracer,
            idx,
            spec,
        }
    }

    // --- trace emission ---------------------------------------------------

    /// A recording buffer on `(group, id)`. It flushes as it drops, at the
    /// end of the statement that made it, so the shared stream keeps
    /// emission order at equal timestamps (which is what the stack-based
    /// span pairing relies on).
    fn track(&self, group: &'static str, id: usize) -> LocalTracer {
        self.tracer.local(Track::new(group, id as u64))
    }

    /// A fault instant on the driver track: `key` names the task kind.
    fn fault(&self, name: &'static str, key: &'static str, id: usize, attempt: usize) {
        let args = [(key, id as f64), ("attempt", attempt as f64)];
        let now = at(self.q.now());
        self.track("driver", 0)
            .instant_at(name, "fault", now, &args);
    }

    // --- gauge upkeep -----------------------------------------------------

    fn refresh_resource_gauges(&mut self) {
        let now = self.q.now();
        let busy: usize = (0..self.idx.compute_nodes)
            .map(|n| self.res[self.idx.cpu(n)].busy())
            .sum();
        self.sampler.set(Gauge::BusyCores, now, busy as f64);
        let mut outstanding = 0usize;
        for n in 0..self.idx.compute_nodes {
            outstanding += self.res[self.idx.data_disk(n)].outstanding();
            if !self.idx.shared_disk {
                outstanding += self.res[self.idx.inter_disk(n)].outstanding();
            }
        }
        for s in 0..self.idx.storage_nodes {
            outstanding += self.res[self.idx.storage_disk(s)].outstanding();
        }
        self.sampler
            .set(Gauge::DiskOutstanding, now, outstanding as f64);
    }

    // --- map pipeline -----------------------------------------------------

    /// Pop the next task for `node`: local-block queue first, then the
    /// global FIFO (a remote read). `None` when nothing is pending.
    fn pick_task_for(&mut self, node: usize) -> Option<usize> {
        while let Some(t) = self.node_queues[node].pop_front() {
            if !self.maps[t].scheduled {
                return Some(t);
            }
        }
        while let Some(t) = self.global_queue.pop_front() {
            if !self.maps[t].scheduled {
                return Some(t);
            }
        }
        None
    }

    /// Locality-aware greedy scheduling: fill every free slot, preferring
    /// tasks whose block is on the slot's node (the JobTracker behaviour
    /// HDFS block placement enables, §II-A).
    fn schedule_maps(&mut self) {
        let nodes = self.idx.compute_nodes;
        'outer: for node in 0..nodes {
            while self.free_slots[node] > 0 {
                if self.pending_count == 0 {
                    break 'outer;
                }
                let Some(task) = self.pick_task_for(node) else {
                    break 'outer;
                };
                self.maps[task].scheduled = true;
                self.pending_count -= 1;
                self.launch_map(task, node);
            }
        }
    }

    /// Start one attempt of `task` on `node`: claim the slot, assign the
    /// attempt id, and issue the block read. Shared by initial
    /// scheduling, failure re-execution, and speculative cloning.
    fn launch_map(&mut self, task: usize, node: usize) {
        let now = self.q.now();
        self.free_slots[node] -= 1;
        let map = &mut self.maps[task];
        let attempt = map.attempts.len();
        map.attempts.push((node, now));
        map.running += 1;
        self.report.faults.map_attempts += 1;
        self.sampler.adjust(Gauge::MapTasks, now, 1.0);
        self.track("map", task)
            .begin_at("map_task", "task", at(now));
        // Under the separated architecture every read is remote, from the
        // storage node holding the block. Otherwise a non-local task reads
        // from the disk of the block's node, then crosses the network.
        let home = self.dfs.primary(task);
        let (disk, step) = if self.spec.cluster.dfs_is_remote() {
            (self.idx.storage_disk(home), Step::Fetched)
        } else if home == node {
            self.local_maps += 1;
            (self.idx.data_disk(node), Step::Read)
        } else {
            (self.idx.data_disk(home), Step::Fetched)
        };
        let block = self.spec.cluster.block_mb;
        let read = Action::Map {
            task,
            attempt,
            step,
        };
        self.res[disk].request(&mut self.q, block, read);
    }

    fn map_cpu_seconds(&self) -> f64 {
        let w = &self.spec.workload;
        let c = &self.spec.cost;
        let block = self.spec.cluster.block_mb;
        let map_fn = block * c.cpu_map_s_mb * w.map_cpu_weight;
        let grouping = match self.model.map_grouping {
            MapGrouping::Sort(share) => block * c.cpu_sort_s_mb * w.sort_cpu_weight * share,
            MapGrouping::Hash => block * c.cpu_hash_s_mb * w.sort_cpu_weight,
        };
        map_fn + grouping
    }

    fn on_map(&mut self, task: usize, attempt: usize, step: Step) {
        let now = self.q.now();
        let node = self.maps[task].attempts[attempt].0;
        let block = self.spec.cluster.block_mb;
        let next = |step| Action::Map {
            task,
            attempt,
            step,
        };
        match step {
            Step::Fetched => {
                self.sampler.count(Counter::DiskReadMb, now, block);
                let nic = self.idx.nic(node);
                self.res[nic].request(&mut self.q, block, next(Step::Received));
            }
            Step::Read | Step::Received => {
                let counter = if step == Step::Read {
                    Counter::DiskReadMb
                } else {
                    Counter::NetMb
                };
                self.sampler.count(counter, now, block);
                // A straggling node runs the map function slow;
                // re-executions and speculative clones land elsewhere and
                // run at full speed.
                let cpu_s = self.map_cpu_seconds() * self.spec.faults.map_slowdown(task, attempt);
                let cpu = self.idx.cpu(node);
                self.res[cpu].request(&mut self.q, cpu_s, next(Step::Computed));
            }
            // The attempt dies after its compute: the block read and the
            // CPU are wasted, no output reaches disk or the shuffle.
            Step::Computed if self.spec.faults.map_attempt_fails(task, attempt) => {
                self.fail_map_attempt(task, attempt)
            }
            Step::Computed => {
                let disk = self.idx.inter_disk(node);
                let out = self.map_out_block_mb;
                if self.model.write_gates_map {
                    // Synchronous map-output write gates completion (§II-A).
                    self.res[disk].request(&mut self.q, out, next(Step::Written));
                } else {
                    self.res[disk].request(&mut self.q, out, Action::Sink);
                    self.q.schedule(0, next(Step::Written));
                }
            }
            Step::Written => self.on_map_written(task, attempt),
            Step::Shipped => unreachable!("map output is written locally"),
        }
    }

    /// An injected failure killed `attempt` of `task`: release its slot
    /// and requeue the task (fresh attempt id) unless a twin attempt is
    /// still running or the task already committed.
    fn fail_map_attempt(&mut self, task: usize, attempt: usize) {
        let now = self.q.now();
        self.report.faults.retries += 1;
        self.maps[task].running -= 1;
        self.sampler.adjust(Gauge::MapTasks, now, -1.0);
        self.track("map", task).end_at("map_task", "task", at(now));
        self.fault("task_failed", "task", task, attempt);
        let map = &self.maps[task];
        self.free_slots[map.attempts[attempt].0] += 1;
        if !map.committed && map.running == 0 {
            self.fault("retry", "task", task, attempt + 1);
            self.maps[task].scheduled = false;
            self.pending_count += 1;
            self.global_queue.push_back(task);
        }
        self.schedule_maps();
    }

    fn on_map_written(&mut self, task: usize, attempt: usize) {
        let now = self.q.now();
        // Sync and async writes count the same volume; the async one is
        // approximated here (when its task finishes) rather than when its
        // disk request drains — the totals are identical.
        self.sampler
            .count(Counter::DiskWriteMb, now, self.map_out_block_mb);
        self.sampler.adjust(Gauge::MapTasks, now, -1.0);
        self.track("map", task).end_at("map_task", "task", at(now));
        let map = &mut self.maps[task];
        map.running -= 1;
        let (node, started) = map.attempts[attempt];
        self.free_slots[node] += 1;
        if map.committed {
            // A twin attempt already committed this task — the engine
            // cancels the loser; the sim lets it drain and discards the
            // completion (its output never reaches the shuffle).
            self.schedule_maps();
            return;
        }
        map.committed = true;
        if map.clone == Some(attempt) {
            self.report.faults.speculative_wins += 1;
        }
        self.map_durations.push(now.saturating_sub(started));
        self.maps_done += 1;

        // Ship one segment per reducer through the destination NIC, in
        // the row's number of transfers; the one completing the segment
        // carries the marker, earlier ones deliver bytes only.
        let chunks = self.model.push_chunks;
        let mb = self.map_out_block_mb / self.reducers.len() as f64 / chunks as f64;
        for reducer in 0..self.reducers.len() {
            let nic = self.idx.nic(self.reducers[reducer].node);
            for c in 0..chunks {
                let last = c == chunks - 1;
                let arrive = Action::Arrive { reducer, mb, last };
                self.res[nic].request(&mut self.q, mb, arrive);
            }
        }

        // HOP snapshots trigger on map-completion fractions.
        while self
            .snapshot_plan
            .first()
            .is_some_and(|&t| self.maps_done >= t)
        {
            self.snapshot_plan.remove(0);
            self.trigger_snapshots();
        }
        self.schedule_maps();
        self.maybe_speculate();
    }

    /// Hadoop's straggler scan, as the model runs it: once enough maps
    /// have committed to estimate a median duration, clone any original
    /// attempt that has been running longer than `slow_factor`× that
    /// median (at most one clone per task); the first finisher commits.
    /// Pending (unscheduled) work keeps priority — clones only take
    /// slots `schedule_maps` left free.
    fn maybe_speculate(&mut self) {
        if !self.spec.faults.speculation || self.map_durations.len() < 2 {
            return;
        }
        let mut durations = self.map_durations.clone();
        durations.sort_unstable();
        let median = durations[durations.len() / 2];
        let threshold = ((median as f64) * self.spec.faults.slow_factor).ceil() as SimTime;
        let now = self.q.now();
        for task in 0..self.maps.len() {
            let map = &self.maps[task];
            if map.committed
                || map.clone.is_some()
                || map.running == 0
                || now.saturating_sub(map.attempts[0].1) <= threshold
            {
                continue;
            }
            let Some(node) = (0..self.idx.compute_nodes).find(|&n| self.free_slots[n] > 0) else {
                return; // no free slot anywhere; retry on the next completion
            };
            let attempt = map.attempts.len();
            self.maps[task].clone = Some(attempt);
            self.report.faults.speculative_launched += 1;
            self.fault("speculate", "task", task, attempt);
            self.launch_map(task, node);
        }
    }

    // --- shuffle and reduce ------------------------------------------------

    fn on_arrive(&mut self, reducer: usize, mb: f64, last: bool) {
        let now = self.q.now();
        self.sampler.count(Counter::NetMb, now, mb);
        let (c, w) = (&self.spec.cost, &self.spec.workload);
        let r = &mut self.reducers[reducer];
        r.segments_arrived += usize::from(last);
        if r.segments_arrived == self.maps.len() {
            // Still formally "shuffling" until final starts; the shuffle
            // gauge tracks reducers waiting on map data.
            self.sampler.adjust(Gauge::ShuffleTasks, now, -1.0);
        }
        let cpu = self.idx.cpu(r.node);
        // The reducer does what the map side left of the sort (HOP moves
        // some sorting work to reducers, §III-D).
        let share = match self.model.map_grouping {
            MapGrouping::Sort(map_share) => 1.0 - map_share,
            MapGrouping::Hash => 0.0,
        };
        if share > 0.0 {
            let cpu_s = mb * c.cpu_sort_s_mb * w.sort_cpu_weight * share;
            self.res[cpu].request(&mut self.q, cpu_s, Action::Sink);
        }
        match &mut r.group {
            Group::SortMerge { buffered_mb, .. } => {
                *buffered_mb += mb;
                self.spill_if_full(reducer);
            }
            Group::Hash {
                cold_pending_mb, ..
            } => {
                let GroupBy::Hash { cold_chunk_mb } = self.model.group_by else {
                    unreachable!("a hash reducer has a hash row");
                };
                // Incremental in-memory update, spread over arrival.
                let cpu_s = mb * c.cpu_inc_update_s_mb * w.reduce_cpu_weight;
                r.pending += 1;
                let update = Action::pass(reducer, Pass::Update, Step::Computed, mb);
                self.res[cpu].request(&mut self.q, cpu_s, update);
                // The cold tail spills once, in chunks.
                *cold_pending_mb += mb * (1.0 - w.hot_fraction);
                if *cold_pending_mb >= cold_chunk_mb {
                    let chunk = std::mem::take(cold_pending_mb);
                    r.pending += 1;
                    let disk = self.idx.inter_disk(r.node);
                    let spill = Action::pass(reducer, Pass::Spill, Step::Written, chunk);
                    self.res[disk].request(&mut self.q, chunk, spill);
                }
            }
        }
        self.maybe_start_final(reducer);
    }

    /// Spill once `reducer` has buffered more: its own buffer when full
    /// or, under the pooled-memory model, the largest buffer when
    /// the job-wide pool is full — skewed reducers borrow slack from idle
    /// siblings, so spills happen only under global pressure.
    fn spill_if_full(&mut self, reducer: usize) {
        let buffered = |r: usize| self.reducers[r].buffered_mb();
        let victim = if self.spec.adaptive_memory {
            let pool = self.spec.reduce_mem_mb * self.reducers.len() as f64;
            let total: f64 = self.reducers.iter().map(Reducer::buffered_mb).sum();
            let largest =
                (0..self.reducers.len()).max_by(|&a, &b| buffered(a).total_cmp(&buffered(b)));
            largest.filter(|_| total >= pool)
        } else {
            Some(reducer).filter(|&r| buffered(r) >= self.spec.reduce_mem_mb)
        };
        if let Some(victim) = victim {
            self.spill(victim);
        }
    }

    /// Write `reducer`'s buffer out as one sorted run of what survives
    /// the buffer-fill combine.
    fn spill(&mut self, reducer: usize) {
        let r = &mut self.reducers[reducer];
        let Group::SortMerge { buffered_mb, .. } = &mut r.group else {
            return;
        };
        let spill_mb = std::mem::take(buffered_mb) * self.spec.workload.reduce_spill_ratio;
        r.pending += 1;
        let disk = self.idx.inter_disk(r.node);
        let spill = Action::pass(reducer, Pass::Spill, Step::Written, spill_mb);
        self.res[disk].request(&mut self.q, spill_mb, spill);
    }

    fn all_segments_arrived(&self, reducer: usize) -> bool {
        self.reducers[reducer].segments_arrived == self.maps.len()
    }

    /// "A background thread merges these on-disk files progressively
    /// whenever the number of such files exceeds a threshold F" (§II-A).
    /// Following Hadoop's actual policy, a background pass starts once
    /// `2F - 1` files accumulate and merges the `F` smallest, so large
    /// already-merged files are not re-merged until the final phase.
    /// `force` starts a pass as soon as more than `F` files exist (the
    /// end-of-job multipass that brings the count down to F).
    fn merge(&mut self, reducer: usize, force: bool) {
        let f = self.spec.merge_factor;
        let r = &mut self.reducers[reducer];
        let Group::SortMerge { runs, merging, .. } = &mut r.group else {
            return;
        };
        let trigger = if force { f + 1 } else { 2 * f - 1 };
        if *merging || runs.len() < trigger {
            return;
        }
        *merging = true;
        r.pending += 1;
        runs.sort_by(|a, b| b.total_cmp(a));
        // Background passes merge F files; the end-of-job pass merges
        // exactly enough of the smallest files to land on F (Hadoop's
        // final-merge policy, which is what keeps Table I's sessionization
        // spill near 1.4x the map output rather than a full extra pass).
        let width = if force {
            (runs.len() - f + 1).min(runs.len())
        } else {
            f
        };
        let merged: f64 = runs.split_off(runs.len() - width).iter().sum();
        let disk = self.idx.inter_disk(r.node);
        self.sampler.adjust(Gauge::MergeTasks, self.q.now(), 1.0);
        let read = Action::pass(reducer, Pass::Merge, Step::Read, merged);
        self.res[disk].request(&mut self.q, merged, read);
    }

    /// HOP: every shuffling reducer with data re-reads everything on disk
    /// ("repeating the merge operation for each snapshot... may incur a
    /// significant I/O overhead").
    fn trigger_snapshots(&mut self) {
        for reducer in 0..self.reducers.len() {
            let r = &mut self.reducers[reducer];
            let Group::SortMerge {
                buffered_mb,
                runs,
                snapshotting,
                ..
            } = &mut r.group
            else {
                continue;
            };
            let on_disk: f64 = runs.iter().sum();
            if !r.shuffling || *snapshotting || (on_disk <= 0.0 && *buffered_mb <= 0.0) {
                continue;
            }
            *snapshotting = true;
            r.pending += 1;
            self.report.snapshots += 1;
            let disk = self.idx.inter_disk(r.node);
            self.sampler.adjust(Gauge::MergeTasks, self.q.now(), 1.0);
            let read = Action::pass(reducer, Pass::Snapshot, Step::Read, on_disk);
            self.res[disk].request(&mut self.q, on_disk, read);
        }
    }

    /// CPU seconds of `pass` over the `mb` it read.
    fn pass_cpu_seconds(&self, reducer: usize, pass: Pass, mb: f64) -> f64 {
        let (c, w) = (&self.spec.cost, &self.spec.workload);
        let r = &self.reducers[reducer];
        match (pass, &r.group) {
            (Pass::Merge, _) => mb * c.cpu_merge_s_mb,
            // Hash: only the cold remainder needs work; hot keys are done.
            (Pass::Final, Group::Hash { .. }) => {
                mb * (c.cpu_inc_update_s_mb * w.reduce_cpu_weight) + 0.5
            }
            // A snapshot or the final pass merges what it read with the
            // buffer and reduces it all.
            _ => {
                (mb + r.buffered_mb())
                    * (c.cpu_merge_s_mb + c.cpu_reduce_s_mb * w.reduce_cpu_weight)
            }
        }
    }

    fn on_pass(&mut self, reducer: usize, pass: Pass, step: Step, mb: f64) {
        let now = self.q.now();
        let node = self.reducers[reducer].node;
        match (pass, step) {
            (_, Step::Read) => {
                self.sampler.count(Counter::DiskReadMb, now, mb);
                if pass != Pass::Snapshot {
                    self.report.merge_read_mb += mb;
                }
                let cpu_s = self.pass_cpu_seconds(reducer, pass, mb);
                let computed = Action::pass(reducer, pass, Step::Computed, mb);
                self.res[self.idx.cpu(node)].request(&mut self.q, cpu_s, computed);
            }
            (Pass::Merge, Step::Computed) => {
                let written = Action::pass(reducer, pass, Step::Written, mb);
                self.res[self.idx.inter_disk(node)].request(&mut self.q, mb, written);
            }
            (Pass::Snapshot, Step::Computed) => {
                self.sampler.adjust(Gauge::MergeTasks, now, -1.0);
                self.track("reduce", reducer)
                    .instant_at("snapshot", LANE, at(now), &[]);
                let r = &mut self.reducers[reducer];
                if let Group::SortMerge { snapshotting, .. } = &mut r.group {
                    *snapshotting = false;
                }
                r.pending -= 1;
                self.maybe_start_final(reducer);
            }
            (Pass::Update, Step::Computed) => {
                self.reducers[reducer].pending -= 1;
                self.maybe_start_final(reducer);
            }
            (Pass::Final, Step::Computed) => self.on_final_computed(reducer),
            (Pass::Final, Step::Shipped) => {
                // Second hop: the storage node's disk absorbs the write.
                let disk = self
                    .idx
                    .storage_disk(reducer % self.idx.storage_nodes.max(1));
                let written = Action::pass(reducer, pass, Step::Written, mb);
                self.res[disk].request(&mut self.q, mb, written);
            }
            (Pass::Spill, Step::Written) => {
                self.sampler.count(Counter::DiskWriteMb, now, mb);
                self.report.spill_written_mb += mb;
                let r = &mut self.reducers[reducer];
                r.pending -= 1;
                let name = match &mut r.group {
                    Group::SortMerge { runs, .. } => {
                        runs.push(mb);
                        "reduce_spill"
                    }
                    Group::Hash { cold_total_mb, .. } => {
                        *cold_total_mb += mb;
                        "cold_spill"
                    }
                };
                self.track("reduce", reducer)
                    .instant_at(name, "spill", at(now), &[("mb", mb)]);
                self.merge(reducer, false);
                self.maybe_start_final(reducer);
            }
            (Pass::Merge, Step::Written) => {
                self.sampler.count(Counter::DiskWriteMb, now, mb);
                self.report.merge_written_mb += mb;
                self.sampler.adjust(Gauge::MergeTasks, now, -1.0);
                self.track("reduce", reducer).instant_at(
                    "merge_pass",
                    "merge",
                    at(now),
                    &[("mb", mb)],
                );
                let r = &mut self.reducers[reducer];
                if let Group::SortMerge { runs, merging, .. } = &mut r.group {
                    *merging = false;
                    runs.push(mb);
                }
                r.pending -= 1;
                self.merge(reducer, false);
                self.maybe_start_final(reducer);
            }
            (Pass::Final, Step::Written) => {
                self.sampler.count(Counter::DiskWriteMb, now, mb);
                self.sampler.adjust(Gauge::ReduceTasks, now, -1.0);
                self.track("reduce", reducer)
                    .end_at("finish", LANE, at(now));
                self.track("reduce", reducer)
                    .end_at("reduce_task", "task", at(now));
                self.reducers_done += 1;
                if self.reducers_done == self.reducers.len() {
                    self.completion = Some(now);
                }
            }
            _ => unreachable!("a {pass:?} pass has no {step:?} step"),
        }
    }

    /// Start the final phase once `reducer` has everything and nothing is
    /// in flight. Sort-merge first multipasses down to F runs and spills
    /// its buffer.
    fn maybe_start_final(&mut self, reducer: usize) {
        let r = &self.reducers[reducer];
        if !r.shuffling || r.pending > 0 || !self.all_segments_arrived(reducer) {
            return;
        }
        let read_mb = match &r.group {
            // End-of-job multipass: bring the file count down to F.
            Group::SortMerge { runs, .. } if runs.len() > self.spec.merge_factor => {
                return self.merge(reducer, true);
            }
            // §III-B.4: the sort-merge reducer writes its in-memory tail
            // to disk "waiting for all future data to produce a single
            // sorted run" — even when memory would have sufficed. This is
            // the spill Table I records for the counting workloads (1.4 GB
            // / 0.2 GB). The spill's completion re-enters here.
            Group::SortMerge { buffered_mb, .. } if *buffered_mb > 0.0 => {
                return self.spill(reducer);
            }
            // The final merge reads all on-disk runs.
            Group::SortMerge { runs, .. } => runs.iter().sum(),
            // Hash resolves the cold spill once.
            Group::Hash {
                cold_pending_mb,
                cold_total_mb,
                ..
            } => cold_total_mb + cold_pending_mb,
        };
        let now = self.q.now();
        let r = &mut self.reducers[reducer];
        r.shuffling = false;
        r.final_read_mb = read_mb;
        self.sampler.adjust(Gauge::ReduceTasks, now, 1.0);
        self.track("reduce", reducer)
            .end_at("shuffle", LANE, at(now));
        self.track("reduce", reducer)
            .begin_at("finish", LANE, at(now));
        self.final_read(reducer);
    }

    /// Issue the final phase's read (again, after an injected failure).
    fn final_read(&mut self, reducer: usize) {
        let r = &self.reducers[reducer];
        let mb = r.final_read_mb;
        let read = Action::pass(reducer, Pass::Final, Step::Read, mb);
        if mb > 0.0 {
            self.res[self.idx.inter_disk(r.node)].request(&mut self.q, mb, read);
        } else {
            self.q.schedule(0, read);
        }
    }

    fn on_final_computed(&mut self, reducer: usize) {
        let r = &mut self.reducers[reducer];
        let attempt = r.attempt;
        if self.spec.faults.reduce_attempt_fails(reducer, attempt) {
            // The reduce attempt dies after its CPU pass; the replacement
            // replays the final phase from the on-disk runs (the engine's
            // retained-segment replay, priced as re-read + re-reduce).
            r.attempt += 1;
            self.report.faults.retries += 1;
            self.fault("task_failed", "reducer", reducer, attempt);
            self.fault("retry", "reducer", reducer, attempt + 1);
            return self.final_read(reducer);
        }
        let w = &self.spec.workload;
        let out_mb = w.input_mb * w.output_ratio / self.reducers.len() as f64;
        let node = self.reducers[reducer].node;
        let (device, step) = if self.spec.cluster.dfs_is_remote() {
            // Output travels over the NIC to a storage node's disk.
            (self.idx.nic(node), Step::Shipped)
        } else {
            (self.idx.data_disk(node), Step::Written)
        };
        let write = Action::pass(reducer, Pass::Final, step, out_mb);
        self.res[device].request(&mut self.q, out_mb, write);
    }

    fn run(mut self) -> SimReport {
        // Job start: all reducers enter shuffle state; initial map wave.
        self.track("driver", 0).begin_at("job", "job", at(0));
        for r in 0..self.reducers.len() {
            self.track("reduce", r)
                .begin_at("reduce_task", "task", at(0));
            self.track("reduce", r).begin_at("shuffle", LANE, at(0));
        }
        self.sampler
            .set(Gauge::ShuffleTasks, 0, self.reducers.len() as f64);
        self.schedule_maps();
        while let Some((_, payload)) = self.q.pop() {
            self.report.events += 1;
            let action = match payload {
                EventPayload::Act(action) => action,
                EventPayload::ResourceDone { res, action } => {
                    self.res[res].on_done(&mut self.q);
                    action
                }
            };
            match action {
                Action::Map {
                    task,
                    attempt,
                    step,
                } => self.on_map(task, attempt, step),
                Action::Pass {
                    reducer,
                    pass,
                    step,
                    mb,
                } => self.on_pass(reducer, pass, step, mb),
                Action::Arrive { reducer, mb, last } => self.on_arrive(reducer, mb, last),
                Action::Sink => {}
            }
            self.refresh_resource_gauges();
        }
        let end = self.completion.unwrap_or_else(|| self.q.now());
        self.track("driver", 0).end_at("job", "job", at(end));
        let attempts = self.report.faults.map_attempts;
        if attempts > 0 {
            self.report.local_map_fraction = self.local_maps as f64 / attempts as f64;
        }
        self.report.finish(end, &mut self.sampler)
    }
}

/// Simulate `spec` to completion and return the report.
pub fn run_sim_job(spec: SimJobSpec) -> SimReport {
    run_sim_job_traced(spec, Tracer::disabled())
}

/// Simulate `spec`, recording trace events into `tracer` stamped with
/// sim time. Drain the tracer afterwards and feed
/// [`onepass_core::trace::chrome_trace_json`] to get a timeline on the
/// exact schema a real engine run produces (map/reduce/driver lanes,
/// `shuffle`/`finish` lane spans, spill instants with volumes).
pub fn run_sim_job_traced(spec: SimJobSpec, tracer: Tracer) -> SimReport {
    World::new(spec, tracer).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StorageConfig;
    use crate::model::WorkloadProfile;

    fn small(system: SystemType, storage: StorageConfig) -> SimReport {
        let cluster = ClusterSpec::paper_cluster(storage);
        // 5% of the paper's volume keeps tests fast (~190 map tasks); a
        // shrunken reducer buffer keeps spill/merge behaviour exercised
        // at this scale (same runs-per-reducer regime as the full run).
        let workload = WorkloadProfile::sessionization().scaled(0.05);
        let mut spec = SimJobSpec::new(system, cluster, workload);
        spec.reduce_mem_mb = 20.0;
        run_sim_job(spec)
    }

    #[test]
    fn hadoop_job_completes_with_all_phases() {
        let r = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        assert!(r.completion_secs > 0.0);
        assert!(r.map_tasks > 30);
        assert!(r.spill_written_mb > 0.0, "sessionization must spill");
        assert!(
            r.series.map_tasks.max_y().unwrap_or(0.0) > 0.0,
            "map timeline must be populated"
        );
        assert!(
            r.series.reduce_tasks.max_y().unwrap_or(0.0) > 0.0,
            "reduce timeline must be populated"
        );
    }

    #[test]
    fn hash_system_is_faster_and_spills_less() {
        let hadoop = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        let hash = small(SystemType::HashOnePass, StorageConfig::SingleHdd);
        assert!(
            hash.completion_secs < hadoop.completion_secs,
            "hash {} should beat hadoop {}",
            hash.completion_secs,
            hadoop.completion_secs
        );
        assert!(
            hash.spill_written_mb < hadoop.spill_written_mb * 0.5,
            "hash spill {} vs hadoop {}",
            hash.spill_written_mb,
            hadoop.spill_written_mb
        );
        assert_eq!(hash.merge_written_mb, 0.0, "hash runs no merge pass");
    }

    #[test]
    fn adaptive_memory_pools_reducer_buffers() {
        let cluster = ClusterSpec::paper_cluster(StorageConfig::SingleHdd);
        let workload = WorkloadProfile::sessionization().scaled(0.05);
        let mut spec = SimJobSpec::new(SystemType::StockHadoop, cluster, workload);
        spec.reduce_mem_mb = 20.0;
        let static_r = run_sim_job(spec.clone());
        spec.adaptive_memory = true;
        let adaptive_r = run_sim_job(spec);
        assert!(adaptive_r.completion_secs > 0.0);
        assert_eq!(adaptive_r.map_tasks, static_r.map_tasks);
        // Pooling buffer slack can only defer spills, never add them.
        assert!(
            adaptive_r.spill_written_mb <= static_r.spill_written_mb + 1e-6,
            "pooled buffers spilled more: {} vs {}",
            adaptive_r.spill_written_mb,
            static_r.spill_written_mb
        );
    }

    #[test]
    fn ssd_config_reduces_runtime_but_not_blocking() {
        let hdd = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        let ssd = small(SystemType::StockHadoop, StorageConfig::HddPlusSsd);
        assert!(
            ssd.completion_secs < hdd.completion_secs,
            "ssd {} vs hdd {}",
            ssd.completion_secs,
            hdd.completion_secs
        );
        // The merge phase still exists (blocking not eliminated, §III-C).
        assert!(ssd.series.merge_tasks.max_y().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn hop_takes_snapshots() {
        let r = small(SystemType::Hop, StorageConfig::SingleHdd);
        assert!(r.snapshots > 0, "HOP must take snapshots");
        // Snapshots re-read data: extra disk reads vs stock would show in
        // merge_read counters; at minimum the job completes.
        assert!(r.completion_secs > 0.0);
    }

    #[test]
    fn disk_write_volume_is_conserved() {
        // Every byte the counters record as written must be explainable:
        // map output + reducer spills + merge rewrites + final output.
        let r = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        let counted: f64 = r.series.disk_write_mb.points.iter().map(|&(_, y)| y).sum();
        let explained = r.map_output_mb + r.spill_written_mb + r.merge_written_mb + r.output_mb;
        let dev = (counted - explained).abs() / explained;
        assert!(
            dev < 0.01,
            "disk writes {counted:.1} MB vs explained {explained:.1} MB"
        );
    }

    #[test]
    fn disk_read_volume_is_conserved() {
        // Reads = input blocks + merge re-reads (incl. final merge).
        let r = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        let counted: f64 = r.series.disk_read_mb.points.iter().map(|&(_, y)| y).sum();
        let explained = r.input_mb + r.merge_read_mb;
        let dev = (counted - explained).abs() / explained;
        assert!(
            dev < 0.01,
            "disk reads {counted:.1} MB vs explained {explained:.1} MB"
        );
    }

    #[test]
    fn smaller_merge_factor_means_more_rewrites() {
        let mk = |f: usize| {
            let mut spec = SimJobSpec::new(
                SystemType::StockHadoop,
                ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
                WorkloadProfile::sessionization().scaled(0.05),
            );
            spec.reduce_mem_mb = 20.0;
            spec.merge_factor = f;
            run_sim_job(spec)
        };
        let tight = mk(2);
        let wide = mk(100);
        assert!(
            tight.merge_written_mb > wide.merge_written_mb,
            "F=2 rewrites {} must exceed F=100 rewrites {}",
            tight.merge_written_mb,
            wide.merge_written_mb
        );
        assert!(tight.completion_secs >= wide.completion_secs);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        let b = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.spill_written_mb, b.spill_written_mb);
    }

    #[test]
    fn separated_storage_works() {
        let r = small(SystemType::StockHadoop, StorageConfig::Separated);
        assert!(r.completion_secs > 0.0);
        assert!(r.series.net_mb.max_y().unwrap_or(0.0) > 0.0);
        assert_eq!(
            r.local_map_fraction, 0.0,
            "separated architecture reads everything remotely"
        );
    }

    #[test]
    fn traced_sim_emits_spans_on_the_engine_schema() {
        use onepass_core::json::Json;
        use onepass_core::trace::{chrome_trace_json, complete_spans};

        let cluster = ClusterSpec::paper_cluster(StorageConfig::SingleHdd);
        let workload = WorkloadProfile::sessionization().scaled(0.02);
        let mut spec = SimJobSpec::new(SystemType::StockHadoop, cluster, workload);
        spec.reduce_mem_mb = 20.0;
        let tracer = Tracer::enabled();
        let report = run_sim_job_traced(spec, tracer.clone());

        let events = tracer.drain();
        assert!(!events.is_empty());
        let spans = complete_spans(&events).expect("balanced begin/end events");
        let maps = spans.iter().filter(|s| s.name == "map_task").count();
        assert_eq!(maps, report.map_tasks);
        let reduces = spans.iter().filter(|s| s.name == "reduce_task").count();
        assert_eq!(reduces, report.reduce_tasks);
        // Every reducer shows the engine's shuffle → finish lanes.
        for lane in ["shuffle", "finish"] {
            let n = spans.iter().filter(|s| (s.name, s.cat) == (lane, LANE));
            assert_eq!(n.count(), report.reduce_tasks, "{lane} lanes");
        }
        // The job span covers the whole run, in sim time.
        let job = spans.iter().find(|s| s.name == "job").expect("job span");
        assert!((job.end.as_secs_f64() - report.completion_secs).abs() < 1e-9);
        // Spill instants carry volumes that add up to the report total.
        let spilled: f64 = events
            .iter()
            .filter(|e| e.name == "reduce_spill")
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| *k == "mb")
            .map(|&(_, v)| v)
            .sum();
        assert!((spilled - report.spill_written_mb).abs() < 1e-6);
        // And the whole stream renders as loadable Chrome trace JSON.
        let doc = Json::parse(&chrome_trace_json(&events)).expect("valid JSON");
        let n = doc.get("traceEvents").and_then(Json::as_arr).unwrap().len();
        assert!(n > events.len(), "metadata records must be present");
    }

    #[test]
    fn locality_is_high_under_replication_one() {
        let r = small(SystemType::StockHadoop, StorageConfig::SingleHdd);
        assert!(
            r.local_map_fraction > 0.8,
            "greedy locality scheduling should keep most reads local, got {}",
            r.local_map_fraction
        );
    }

    fn faulty_spec(faults: SimFaults) -> SimJobSpec {
        let cluster = ClusterSpec::paper_cluster(StorageConfig::SingleHdd);
        let workload = WorkloadProfile::sessionization().scaled(0.02);
        let mut spec = SimJobSpec::new(SystemType::StockHadoop, cluster, workload);
        spec.reduce_mem_mb = 20.0;
        spec.faults = faults;
        spec
    }

    #[test]
    fn injected_map_failure_retries_and_completes() {
        let clean = run_sim_job(faulty_spec(SimFaults::default()));
        let faults = SimFaults {
            map_failures: vec![(0, 1), (3, 2)],
            ..SimFaults::default()
        };
        let r = run_sim_job(faulty_spec(faults));
        assert!(r.completion_secs > 0.0, "faulty job must still complete");
        assert_eq!(r.map_tasks, clean.map_tasks);
        assert_eq!(r.faults.retries, 3, "1 + 2 injected failures retried");
        assert_eq!(
            r.faults.map_attempts,
            clean.map_tasks + 3,
            "each failure costs exactly one extra attempt"
        );
        assert!(
            r.completion_secs >= clean.completion_secs,
            "recovery costs time: {} vs clean {}",
            r.completion_secs,
            clean.completion_secs
        );
    }

    #[test]
    fn failure_counts_are_clamped_to_max_attempts() {
        // 100 planned failures but only 3 attempts allowed: the plan is
        // clamped to 2 real failures so the run still completes.
        let faults = SimFaults {
            map_failures: vec![(0, 100)],
            max_attempts: 3,
            ..SimFaults::default()
        };
        let r = run_sim_job(faulty_spec(faults));
        assert!(r.completion_secs > 0.0);
        assert_eq!(r.faults.retries, 2);
    }

    #[test]
    fn speculation_beats_a_straggling_map() {
        let straggle = SimFaults {
            map_stragglers: vec![(0, 40.0)],
            ..SimFaults::default()
        };
        let without = run_sim_job(faulty_spec(straggle.clone()));
        let with = run_sim_job(faulty_spec(SimFaults {
            speculation: true,
            ..straggle
        }));
        assert!(with.faults.speculative_launched >= 1, "clone must launch");
        assert!(
            with.faults.speculative_wins >= 1,
            "the clone should beat a 40x straggler"
        );
        assert!(
            with.completion_secs < without.completion_secs,
            "speculation {} should beat straggling {}",
            with.completion_secs,
            without.completion_secs
        );
    }

    #[test]
    fn injected_reduce_failure_replays_the_final_phase() {
        let clean = run_sim_job(faulty_spec(SimFaults::default()));
        let faults = SimFaults {
            reduce_failures: vec![(0, 1)],
            ..SimFaults::default()
        };
        let r = run_sim_job(faulty_spec(faults));
        assert!(r.completion_secs > 0.0);
        assert_eq!(r.faults.retries, 1);
        assert!(
            r.merge_read_mb > clean.merge_read_mb,
            "the replayed final phase re-reads the on-disk runs"
        );
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let faults = SimFaults {
            map_failures: vec![(1, 1)],
            map_stragglers: vec![(0, 20.0)],
            reduce_failures: vec![(0, 1)],
            speculation: true,
            ..SimFaults::default()
        };
        let a = run_sim_job(faulty_spec(faults.clone()));
        let b = run_sim_job(faulty_spec(faults));
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn fault_trace_instants_ride_the_engine_schema() {
        let faults = SimFaults {
            map_failures: vec![(0, 1)],
            ..SimFaults::default()
        };
        let tracer = Tracer::enabled();
        let r = run_sim_job_traced(faulty_spec(faults), tracer.clone());
        let events = tracer.drain();
        let failed = events.iter().filter(|e| e.name == "task_failed").count();
        let retried = events.iter().filter(|e| e.name == "retry").count();
        assert_eq!(failed, 1);
        assert_eq!(retried, 1);
        // Spans stay balanced even with the extra attempt's map span.
        use onepass_core::trace::complete_spans;
        let spans = complete_spans(&events).expect("balanced spans");
        let maps = spans.iter().filter(|s| s.name == "map_task").count();
        assert_eq!(maps, r.faults.map_attempts);
        assert_eq!(r.faults.map_attempts, r.map_tasks + 1);
    }
}
