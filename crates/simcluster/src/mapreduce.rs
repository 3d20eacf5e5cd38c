//! MapReduce execution models on the simulated cluster: StockHadoop,
//! Hop (MapReduce Online), HashOnePass (the paper's proposed system).
//!
//! Each model is a state machine dispatched over `Action` events. The
//! Hadoop model follows Fig. 1 stage by stage: block read → map fn +
//! block sort → synchronous map-output write → shuffle → reducer buffer →
//! spill → progressive multi-pass merge (factor F) → blocking final merge
//! → reduce → output write. The Hop model pushes map output eagerly,
//! splits the sort between map and reduce sides, and re-reads all received
//! data at snapshot points. The HashOnePass model removes the sort and the
//! merge entirely: incremental per-record CPU as data arrives, bounded
//! cold-key spill, short final emit.

use std::collections::VecDeque;
use std::time::Duration;

use onepass_core::trace::{Tracer, Track, LANE};

use crate::cluster::ClusterSpec;
use crate::dfs::{Dfs, DfsConfig};
use crate::engine::{secs, EventPayload, EventQueue, Resource, SimTime};
use crate::model::{CostModel, WorkloadProfile};
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
        match self {
            SystemType::StockHadoop => "stock-hadoop",
            SystemType::Hop => "mapreduce-online",
            SystemType::HashOnePass => "hash-one-pass",
        }
    }
}

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
    /// Snapshot fractions (Hop only).
    pub snapshots: Vec<f64>,
    /// DFS block replication (the paper turned it down to 1).
    pub replication: usize,
    /// Fault and straggler injection (mirrors the engine's
    /// `RetryPolicy` / `SpeculationConfig` / `FaultPlan`).
    pub faults: SimFaults,
    /// Mirror of the engine's adaptive memory governor: pool the
    /// reducer shuffle buffers job-wide, spill only on *global*
    /// pressure, and pick the largest consumer as the spill victim.
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
            merge_factor: 10,
            snapshots: if system == SystemType::Hop {
                vec![0.25, 0.50, 0.75]
            } else {
                Vec::new()
            },
            replication: 1,
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
    /// Attempts allowed per task, `>= 1` (engine `RetryPolicy`).
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

/// Event actions of the MapReduce state machines. `mb` values ride along
/// so handlers need no side tables.
#[derive(Debug, Clone)]
enum Action {
    // Map pipeline. Every stage carries the attempt id so retried and
    // speculative executions of the same task stay distinguishable.
    MapLoadedRemoteDisk {
        task: usize,
        attempt: usize,
    },
    MapLoadedNic {
        task: usize,
        attempt: usize,
    },
    MapLoaded {
        task: usize,
        attempt: usize,
    },
    MapComputed {
        task: usize,
        attempt: usize,
    },
    MapWritten {
        task: usize,
        attempt: usize,
    },
    // Shuffle.
    SegmentArrived {
        reducer: usize,
        mb: f64,
    },
    /// A partial (pipelined) chunk of a segment: bytes arrive and buffer,
    /// but the per-map segment counter only advances on `SegmentArrived`.
    ChunkArrived {
        reducer: usize,
        mb: f64,
    },
    // Sort-merge reduce pipeline.
    SpillWritten {
        reducer: usize,
        mb: f64,
    },
    MergeRead {
        reducer: usize,
        mb: f64,
    },
    MergeCpuDone {
        reducer: usize,
        mb: f64,
    },
    MergeWritten {
        reducer: usize,
        mb: f64,
    },
    SnapshotRead {
        reducer: usize,
        mb: f64,
    },
    SnapshotCpuDone {
        reducer: usize,
    },
    FinalRead {
        reducer: usize,
        mb: f64,
    },
    FinalCpuDone {
        reducer: usize,
    },
    FinalWrittenLocal {
        reducer: usize,
        mb: f64,
    },
    FinalWritten {
        reducer: usize,
    },
    // Hash reduce pipeline.
    IncUpdateDone {
        reducer: usize,
    },
    ColdSpillWritten {
        reducer: usize,
        mb: f64,
    },
    // CPU consumed without gating anything (HOP reduce-side sorting).
    CpuSink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReducerState {
    Shuffling,
    Finalizing,
    Done,
}

#[derive(Debug)]
struct Reducer {
    node: usize,
    state: ReducerState,
    buffered_mb: f64,
    runs: Vec<f64>,
    segments_arrived: usize,
    pending_spills: usize,
    merging: bool,
    /// Cold-spill accumulator (hash system).
    cold_pending_mb: f64,
    cold_total_mb: f64,
    /// Incremental-update CPU requests in flight (hash system).
    pending_updates: usize,
    snapshotting: bool,
    /// Final-phase attempt id (bumped by injected reduce failures).
    attempt: usize,
    /// MB the final phase reads from disk — remembered so an injected
    /// failure can replay the read.
    final_read_mb: f64,
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
    fn total(&self) -> usize {
        4 * self.compute_nodes + self.storage_nodes
    }
}

struct World {
    spec: SimJobSpec,
    q: EventQueue<Action>,
    res: Vec<Resource<Action>>,
    idx: ResIdx,
    sampler: Sampler,
    // Map scheduling (locality-aware over the DFS placement).
    dfs: Dfs,
    /// Per-node queues of tasks with a local replica (may contain
    /// already-scheduled tasks; filtered on pop).
    node_queues: Vec<VecDeque<usize>>,
    /// Global FIFO fallback for work stealing (remote reads).
    global_queue: VecDeque<usize>,
    scheduled: Vec<bool>,
    /// Node each attempt of each task was assigned to (`[task][attempt]`;
    /// attempt ids are sequential per task).
    attempt_node: Vec<Vec<usize>>,
    free_slots: Vec<usize>,
    pending_count: usize,
    maps_done: usize,
    total_maps: usize,
    local_maps: usize,
    remote_maps: usize,
    // Fault tolerance (attempt-aware map commit, mirroring the engine).
    /// Attempt id the next launch of each task will use.
    next_attempt: Vec<usize>,
    /// Whether the task's output has been committed (first attempt to
    /// finish wins; later completions are discarded).
    map_committed: Vec<bool>,
    /// Attempts of the task currently in flight.
    map_running: Vec<usize>,
    /// Sim time each attempt started (`[task][attempt]`).
    attempt_started: Vec<Vec<SimTime>>,
    /// Speculative clone attempt id, if one was launched.
    clone_attempt: Vec<Option<usize>>,
    /// Durations of committed maps (straggler-threshold median).
    map_durations: Vec<SimTime>,
    map_attempts: usize,
    retries: usize,
    speculative_launched: usize,
    speculative_wins: usize,
    // Reducers.
    reducers: Vec<Reducer>,
    reducers_done: usize,
    // Derived volumes.
    map_out_block_mb: f64,
    // Snapshot thresholds (maps_done counts), ascending.
    snapshot_plan: Vec<usize>,
    snapshots_taken: u64,
    // Totals.
    spill_written_mb: f64,
    merge_read_mb: f64,
    merge_written_mb: f64,
    completion: Option<SimTime>,
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
            shared_disk: cluster.storage == crate::cluster::StorageConfig::SingleHdd,
        };
        let mut res = Vec::with_capacity(idx.total());
        for n in 0..idx.compute_nodes {
            res.push(Resource::new(
                idx.cpu(n),
                format!("cpu{n}"),
                1.0,
                cluster.cores_per_node,
            ));
        }
        for n in 0..idx.compute_nodes {
            res.push(
                Resource::new(
                    idx.data_disk(n),
                    format!("datadisk{n}"),
                    cluster.data_disk.bandwidth_mb_s,
                    1,
                )
                .with_overhead(secs(cluster.data_disk.overhead_s)),
            );
        }
        for n in 0..idx.compute_nodes {
            res.push(
                Resource::new(
                    idx.inter_disk(n),
                    format!("interdisk{n}"),
                    cluster.inter_disk.bandwidth_mb_s,
                    1,
                )
                .with_overhead(secs(cluster.inter_disk.overhead_s)),
            );
        }
        for n in 0..idx.compute_nodes {
            res.push(
                Resource::new(idx.nic(n), format!("nic{n}"), cluster.nic.bandwidth_mb_s, 1)
                    .with_overhead(secs(cluster.nic.overhead_s)),
            );
        }
        for s in 0..idx.storage_nodes {
            res.push(
                Resource::new(
                    idx.storage_disk(s),
                    format!("storagedisk{s}"),
                    cluster.data_disk.bandwidth_mb_s,
                    1,
                )
                .with_overhead(secs(cluster.data_disk.overhead_s)),
            );
        }

        let total_maps = spec.workload.map_tasks(cluster.block_mb);
        // Blocks live on the data-bearing nodes: the compute nodes
        // normally, the storage nodes under the separated architecture.
        let data_nodes = if cluster.dfs_is_remote() {
            idx.storage_nodes.max(1)
        } else {
            idx.compute_nodes
        };
        let dfs = Dfs::place(
            total_maps,
            data_nodes,
            DfsConfig {
                replication: spec.replication,
            },
        );
        let mut node_queues = vec![VecDeque::new(); idx.compute_nodes];
        if !cluster.dfs_is_remote() {
            for (n, queue) in node_queues.iter_mut().enumerate() {
                *queue = dfs.primary_blocks(n).collect();
            }
        }
        let map_out_block_mb = cluster.block_mb * spec.workload.map_output_ratio;
        let reducers = (0..spec.workload.reducers)
            .map(|r| Reducer {
                node: r % idx.compute_nodes,
                state: ReducerState::Shuffling,
                buffered_mb: 0.0,
                runs: Vec::new(),
                segments_arrived: 0,
                pending_spills: 0,
                merging: false,
                cold_pending_mb: 0.0,
                cold_total_mb: 0.0,
                pending_updates: 0,
                snapshotting: false,
                attempt: 0,
                final_read_mb: 0.0,
            })
            .collect();
        let mut snapshot_plan: Vec<usize> = spec
            .snapshots
            .iter()
            .map(|f| ((f * total_maps as f64).ceil() as usize).max(1))
            .collect();
        snapshot_plan.sort_unstable();
        snapshot_plan.dedup();

        let free_slots = vec![spec.cluster.map_slots_per_node; idx.compute_nodes];
        World {
            q: EventQueue::new(),
            res,
            idx,
            sampler: Sampler::new(),
            dfs,
            node_queues,
            global_queue: (0..total_maps).collect(),
            scheduled: vec![false; total_maps],
            attempt_node: vec![Vec::new(); total_maps],
            free_slots,
            pending_count: total_maps,
            maps_done: 0,
            total_maps,
            local_maps: 0,
            remote_maps: 0,
            next_attempt: vec![0; total_maps],
            map_committed: vec![false; total_maps],
            map_running: vec![0; total_maps],
            attempt_started: vec![Vec::new(); total_maps],
            clone_attempt: vec![None; total_maps],
            map_durations: Vec::new(),
            map_attempts: 0,
            retries: 0,
            speculative_launched: 0,
            speculative_wins: 0,
            reducers,
            reducers_done: 0,
            map_out_block_mb,
            snapshot_plan,
            snapshots_taken: 0,
            spill_written_mb: 0.0,
            merge_read_mb: 0.0,
            merge_written_mb: 0.0,
            completion: None,
            tracer,
            spec,
        }
    }

    // --- trace emission ---------------------------------------------------

    /// Open a span on `(group, id)` at sim time `at`. Each emission uses a
    /// transient buffer that flushes immediately, so the shared stream
    /// keeps emission order at equal timestamps (which is what the
    /// stack-based span pairing relies on).
    fn trace_begin(
        &self,
        group: &'static str,
        id: usize,
        name: &'static str,
        cat: &'static str,
        at: SimTime,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.local(Track::new(group, id as u64)).begin_at(
                name,
                cat,
                Duration::from_micros(at),
            );
        }
    }

    /// Close the innermost span on `(group, id)` at sim time `at`.
    fn trace_end(
        &self,
        group: &'static str,
        id: usize,
        name: &'static str,
        cat: &'static str,
        at: SimTime,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.local(Track::new(group, id as u64)).end_at(
                name,
                cat,
                Duration::from_micros(at),
            );
        }
    }

    /// Record a point event on `(group, id)` at sim time `at`.
    fn trace_instant(
        &self,
        group: &'static str,
        id: usize,
        name: &'static str,
        cat: &'static str,
        at: SimTime,
        args: &[(&'static str, f64)],
    ) {
        if self.tracer.is_enabled() {
            self.tracer.local(Track::new(group, id as u64)).instant_at(
                name,
                cat,
                Duration::from_micros(at),
                args,
            );
        }
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

    /// Pop the next task for `node`: local-replica queue first, then the
    /// global FIFO (a remote read). `None` when nothing is pending.
    fn pick_task_for(&mut self, node: usize) -> Option<usize> {
        while let Some(t) = self.node_queues[node].pop_front() {
            if !self.scheduled[t] {
                return Some(t);
            }
        }
        while let Some(t) = self.global_queue.pop_front() {
            if !self.scheduled[t] {
                return Some(t);
            }
        }
        None
    }

    /// Locality-aware greedy scheduling: fill every free slot, preferring
    /// tasks whose block has a replica on the slot's node (the JobTracker
    /// behaviour HDFS block placement enables, §II-A).
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
                self.scheduled[task] = true;
                self.pending_count -= 1;
                self.launch_map(task, node);
            }
        }
    }

    /// Start one attempt of `task` on `node`: claim the slot, assign the
    /// attempt id, and issue the block read. Shared by initial
    /// scheduling, failure re-execution, and speculative cloning.
    fn launch_map(&mut self, task: usize, node: usize) {
        self.free_slots[node] -= 1;
        let attempt = self.next_attempt[task];
        self.next_attempt[task] += 1;
        debug_assert_eq!(self.attempt_node[task].len(), attempt);
        self.attempt_node[task].push(node);
        self.map_attempts += 1;
        self.map_running[task] += 1;
        let now = self.q.now();
        self.attempt_started[task].push(now);
        self.sampler.adjust(Gauge::MapTasks, now, 1.0);
        self.trace_begin("map", task, "map_task", "task", now);
        let block = self.spec.cluster.block_mb;
        if self.spec.cluster.dfs_is_remote() {
            // Separated architecture: every read is remote, from
            // the storage node holding the block.
            self.remote_maps += 1;
            let s = self.dfs.primary(task);
            self.res[self.idx.storage_disk(s)].request(
                &mut self.q,
                block,
                Action::MapLoadedRemoteDisk { task, attempt },
            );
        } else if self.dfs.is_local(task, node) {
            self.local_maps += 1;
            self.res[self.idx.data_disk(node)].request(
                &mut self.q,
                block,
                Action::MapLoaded { task, attempt },
            );
        } else {
            // Non-local task: read from a replica holder's disk,
            // then cross the network to this node.
            self.remote_maps += 1;
            let src = self.dfs.primary(task);
            self.res[self.idx.data_disk(src)].request(
                &mut self.q,
                block,
                Action::MapLoadedRemoteDisk { task, attempt },
            );
        }
    }

    fn map_cpu_seconds(&self) -> f64 {
        let w = &self.spec.workload;
        let c = &self.spec.cost;
        let block = self.spec.cluster.block_mb;
        let map_fn = block * c.cpu_map_s_mb * w.map_cpu_weight;
        // Grouping cost follows the *pre-combine* emitted volume (~ the
        // input block scaled by the workload's sort weight): the sort runs
        // over every emitted record before the combine collapses them.
        let grouping = match self.spec.system {
            SystemType::StockHadoop => block * c.cpu_sort_s_mb * w.sort_cpu_weight,
            // HOP moves some sorting work to reducers (§III-D).
            SystemType::Hop => block * c.cpu_sort_s_mb * w.sort_cpu_weight * 0.5,
            SystemType::HashOnePass => block * c.cpu_hash_s_mb * w.sort_cpu_weight,
        };
        map_fn + grouping
    }

    fn on_map_loaded(&mut self, task: usize, attempt: usize) {
        let node = self.attempt_node[task][attempt];
        // A straggling node runs the map function slow; re-executions
        // and speculative clones land elsewhere and run at full speed.
        let cpu_s = self.map_cpu_seconds() * self.spec.faults.map_slowdown(task, attempt);
        self.res[self.idx.cpu(node)].request(
            &mut self.q,
            cpu_s,
            Action::MapComputed { task, attempt },
        );
    }

    fn on_map_computed(&mut self, task: usize, attempt: usize) {
        if self.spec.faults.map_attempt_fails(task, attempt) {
            // The attempt dies after its compute: the block read and the
            // CPU are wasted, no output reaches disk or the shuffle.
            self.fail_map_attempt(task, attempt);
            return;
        }
        let node = self.attempt_node[task][attempt];
        match self.spec.system {
            SystemType::StockHadoop => {
                // Synchronous map-output write gates completion (§II-A).
                self.res[self.idx.inter_disk(node)].request(
                    &mut self.q,
                    self.map_out_block_mb,
                    Action::MapWritten { task, attempt },
                );
            }
            SystemType::HashOnePass => {
                // The hash system pushes output eagerly and persists it
                // with asynchronous I/O (§III-B.2): the write occupies the
                // disk but does not gate task completion or the shuffle.
                self.res[self.idx.inter_disk(node)].request(
                    &mut self.q,
                    self.map_out_block_mb,
                    Action::CpuSink,
                );
                self.q.schedule(0, Action::MapWritten { task, attempt });
            }
            SystemType::Hop => {
                // HOP pipelines the *push* but, being Hadoop underneath,
                // still persists map output synchronously.
                self.res[self.idx.inter_disk(node)].request(
                    &mut self.q,
                    self.map_out_block_mb,
                    Action::MapWritten { task, attempt },
                );
            }
        }
    }

    /// An injected failure killed `attempt` of `task`: release its slot
    /// and requeue the task (fresh attempt id) unless a twin attempt is
    /// still running or the task already committed.
    fn fail_map_attempt(&mut self, task: usize, attempt: usize) {
        let now = self.q.now();
        self.retries += 1;
        self.map_running[task] -= 1;
        self.sampler.adjust(Gauge::MapTasks, now, -1.0);
        self.trace_end("map", task, "map_task", "task", now);
        self.trace_instant(
            "driver",
            0,
            "task_failed",
            "fault",
            now,
            &[("task", task as f64), ("attempt", attempt as f64)],
        );
        self.free_slots[self.attempt_node[task][attempt]] += 1;
        if !self.map_committed[task] && self.map_running[task] == 0 {
            self.trace_instant(
                "driver",
                0,
                "retry",
                "fault",
                now,
                &[("task", task as f64), ("attempt", (attempt + 1) as f64)],
            );
            self.scheduled[task] = false;
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
        self.trace_end("map", task, "map_task", "task", now);
        self.map_running[task] -= 1;
        self.free_slots[self.attempt_node[task][attempt]] += 1;
        if self.map_committed[task] {
            // A twin attempt already committed this task — the engine
            // cancels the loser; the sim lets it drain and discards the
            // completion (its output never reaches the shuffle).
            self.schedule_maps();
            return;
        }
        self.map_committed[task] = true;
        self.map_durations
            .push(now.saturating_sub(self.attempt_started[task][attempt]));
        if self.clone_attempt[task] == Some(attempt) {
            self.speculative_wins += 1;
        }
        self.maps_done += 1;

        // Ship one segment per reducer through the destination NIC. HOP
        // "transmits map output eagerly in finer granularity and hence
        // increases network cost" (§III-D): model its push as several
        // small transfers, each paying the per-request overhead.
        let r_count = self.reducers.len();
        let seg_mb = self.map_out_block_mb / r_count as f64;
        let chunks = if self.spec.system == SystemType::Hop {
            6
        } else {
            1
        };
        for r in 0..r_count {
            let dst = self.reducers[r].node;
            for c in 0..chunks {
                // The arrival completing the segment carries the marker;
                // earlier chunks deliver bytes only.
                let last = c == chunks - 1;
                self.res[self.idx.nic(dst)].request(
                    &mut self.q,
                    seg_mb / chunks as f64,
                    if last {
                        Action::SegmentArrived {
                            reducer: r,
                            mb: seg_mb / chunks as f64,
                        }
                    } else {
                        Action::ChunkArrived {
                            reducer: r,
                            mb: seg_mb / chunks as f64,
                        }
                    },
                );
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

    /// Mirror of the engine's straggler scan: once enough maps have
    /// committed to estimate a median duration, clone any original
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
        for task in 0..self.total_maps {
            if self.map_committed[task]
                || self.clone_attempt[task].is_some()
                || self.map_running[task] == 0
            {
                continue;
            }
            let elapsed = now.saturating_sub(self.attempt_started[task][0]);
            if elapsed <= threshold {
                continue;
            }
            let Some(node) = (0..self.idx.compute_nodes).find(|&n| self.free_slots[n] > 0) else {
                return; // no free slot anywhere; retry on the next completion
            };
            let attempt = self.next_attempt[task];
            self.clone_attempt[task] = Some(attempt);
            self.speculative_launched += 1;
            self.trace_instant(
                "driver",
                0,
                "speculate",
                "fault",
                now,
                &[("task", task as f64), ("attempt", attempt as f64)],
            );
            self.launch_map(task, node);
        }
    }

    // --- shuffle + sort-merge reduce ---------------------------------------

    fn on_segment_arrived(&mut self, reducer: usize, mb: f64, completes_segment: bool) {
        let now = self.q.now();
        self.sampler.count(Counter::NetMb, now, mb);
        let node = self.reducers[reducer].node;
        if completes_segment {
            self.reducers[reducer].segments_arrived += 1;
        }

        match self.spec.system {
            SystemType::StockHadoop | SystemType::Hop => {
                if self.spec.system == SystemType::Hop {
                    // Reduce-side share of the sorting work.
                    let cpu_s = mb
                        * self.spec.cost.cpu_sort_s_mb
                        * self.spec.workload.sort_cpu_weight
                        * 0.5;
                    self.res[self.idx.cpu(node)].request(&mut self.q, cpu_s, Action::CpuSink);
                }
                self.reducers[reducer].buffered_mb += mb;
                // Adaptive governor mirror: skewed reducers borrow slack
                // from idle siblings, so spills happen only under global
                // pressure — and hit the largest consumer.
                let victim = if self.spec.adaptive_memory {
                    let pool = self.spec.reduce_mem_mb * self.reducers.len() as f64;
                    let total: f64 = self.reducers.iter().map(|r| r.buffered_mb).sum();
                    if total >= pool {
                        (0..self.reducers.len()).max_by(|&a, &b| {
                            self.reducers[a]
                                .buffered_mb
                                .total_cmp(&self.reducers[b].buffered_mb)
                        })
                    } else {
                        None
                    }
                } else if self.reducers[reducer].buffered_mb >= self.spec.reduce_mem_mb {
                    Some(reducer)
                } else {
                    None
                };
                if let Some(victim) = victim {
                    let spill_mb =
                        self.reducers[victim].buffered_mb * self.spec.workload.reduce_spill_ratio;
                    self.reducers[victim].buffered_mb = 0.0;
                    self.reducers[victim].pending_spills += 1;
                    let vnode = self.reducers[victim].node;
                    self.res[self.idx.inter_disk(vnode)].request(
                        &mut self.q,
                        spill_mb,
                        Action::SpillWritten {
                            reducer: victim,
                            mb: spill_mb,
                        },
                    );
                }
            }
            SystemType::HashOnePass => {
                // Incremental in-memory update, spread over arrival.
                let cpu_s =
                    mb * self.spec.cost.cpu_inc_update_s_mb * self.spec.workload.reduce_cpu_weight;
                self.reducers[reducer].pending_updates += 1;
                self.res[self.idx.cpu(node)].request(
                    &mut self.q,
                    cpu_s,
                    Action::IncUpdateDone { reducer },
                );
                // Cold tail spills once, in 64 MB chunks.
                let cold = mb * (1.0 - self.spec.workload.hot_fraction);
                self.reducers[reducer].cold_pending_mb += cold;
                if self.reducers[reducer].cold_pending_mb >= 64.0 {
                    let chunk = self.reducers[reducer].cold_pending_mb;
                    self.reducers[reducer].cold_pending_mb = 0.0;
                    self.reducers[reducer].pending_spills += 1;
                    self.res[self.idx.inter_disk(node)].request(
                        &mut self.q,
                        chunk,
                        Action::ColdSpillWritten { reducer, mb: chunk },
                    );
                }
            }
        }
        self.maybe_leave_shuffle(reducer);
        self.maybe_start_final(reducer);
    }

    fn all_segments_arrived(&self, reducer: usize) -> bool {
        self.reducers[reducer].segments_arrived == self.total_maps
    }

    fn maybe_leave_shuffle(&mut self, reducer: usize) {
        if self.all_segments_arrived(reducer)
            && self.reducers[reducer].state == ReducerState::Shuffling
        {
            // Still formally "shuffling" until final starts; the shuffle
            // gauge tracks reducers waiting on map data.
            let now = self.q.now();
            self.sampler.adjust(Gauge::ShuffleTasks, now, -1.0);
        }
    }

    fn on_spill_written(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        self.sampler.count(Counter::DiskWriteMb, now, mb);
        self.trace_instant(
            "reduce",
            reducer,
            "reduce_spill",
            "spill",
            now,
            &[("mb", mb)],
        );
        self.spill_written_mb += mb;
        self.reducers[reducer].pending_spills -= 1;
        self.reducers[reducer].runs.push(mb);
        self.maybe_background_merge(reducer, false);
        self.maybe_start_final(reducer);
    }

    /// "A background thread merges these on-disk files progressively
    /// whenever the number of such files exceeds a threshold F" (§II-A).
    /// Following Hadoop's actual policy, a background pass starts once
    /// `2F - 1` files accumulate and merges the `F` smallest, so large
    /// already-merged files are not re-merged until the final phase.
    /// `force` starts a pass as soon as more than `F` files exist (the
    /// end-of-job multipass that brings the count down to F).
    fn maybe_background_merge(&mut self, reducer: usize, force: bool) {
        let r = &mut self.reducers[reducer];
        let trigger = if force {
            self.spec.merge_factor + 1
        } else {
            2 * self.spec.merge_factor - 1
        };
        if r.merging || r.runs.len() < trigger {
            return;
        }
        r.merging = true;
        r.runs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Background passes merge F files; the end-of-job pass merges
        // exactly enough of the smallest files to land on F (Hadoop's
        // final-merge policy, which is what keeps Table I's sessionization
        // spill near 1.4x the map output rather than a full extra pass).
        let width = if force {
            (r.runs.len() - self.spec.merge_factor + 1).min(r.runs.len())
        } else {
            self.spec.merge_factor
        };
        let merged: f64 = r.runs.split_off(r.runs.len() - width).iter().sum();
        let node = r.node;
        let now = self.q.now();
        self.sampler.adjust(Gauge::MergeTasks, now, 1.0);
        self.res[self.idx.inter_disk(node)].request(
            &mut self.q,
            merged,
            Action::MergeRead {
                reducer,
                mb: merged,
            },
        );
    }

    fn on_merge_read(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        self.sampler.count(Counter::DiskReadMb, now, mb);
        self.merge_read_mb += mb;
        let node = self.reducers[reducer].node;
        let cpu_s = mb * self.spec.cost.cpu_merge_s_mb;
        self.res[self.idx.cpu(node)].request(
            &mut self.q,
            cpu_s,
            Action::MergeCpuDone { reducer, mb },
        );
    }

    fn on_merge_cpu_done(&mut self, reducer: usize, mb: f64) {
        let node = self.reducers[reducer].node;
        self.res[self.idx.inter_disk(node)].request(
            &mut self.q,
            mb,
            Action::MergeWritten { reducer, mb },
        );
    }

    fn on_merge_written(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        self.sampler.count(Counter::DiskWriteMb, now, mb);
        self.merge_written_mb += mb;
        self.sampler.adjust(Gauge::MergeTasks, now, -1.0);
        self.trace_instant("reduce", reducer, "merge_pass", "merge", now, &[("mb", mb)]);
        self.reducers[reducer].merging = false;
        self.reducers[reducer].runs.push(mb);
        self.maybe_background_merge(reducer, false);
        self.maybe_start_final(reducer);
    }

    // --- HOP snapshots ------------------------------------------------------

    fn trigger_snapshots(&mut self) {
        for r in 0..self.reducers.len() {
            if self.reducers[r].state != ReducerState::Shuffling || self.reducers[r].snapshotting {
                continue;
            }
            let on_disk: f64 = self.reducers[r].runs.iter().sum();
            if on_disk <= 0.0 && self.reducers[r].buffered_mb <= 0.0 {
                continue;
            }
            self.reducers[r].snapshotting = true;
            self.snapshots_taken += 1;
            let now = self.q.now();
            self.sampler.adjust(Gauge::MergeTasks, now, 1.0);
            let node = self.reducers[r].node;
            // Re-read everything on disk ("repeating the merge operation
            // for each snapshot... may incur a significant I/O overhead").
            self.res[self.idx.inter_disk(node)].request(
                &mut self.q,
                on_disk,
                Action::SnapshotRead {
                    reducer: r,
                    mb: on_disk,
                },
            );
        }
    }

    fn on_snapshot_read(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        self.sampler.count(Counter::DiskReadMb, now, mb);
        let node = self.reducers[reducer].node;
        let total = mb + self.reducers[reducer].buffered_mb;
        let cpu_s = total
            * (self.spec.cost.cpu_merge_s_mb
                + self.spec.cost.cpu_reduce_s_mb * self.spec.workload.reduce_cpu_weight);
        self.res[self.idx.cpu(node)].request(
            &mut self.q,
            cpu_s,
            Action::SnapshotCpuDone { reducer },
        );
    }

    fn on_snapshot_cpu_done(&mut self, reducer: usize) {
        let now = self.q.now();
        self.sampler.adjust(Gauge::MergeTasks, now, -1.0);
        self.trace_instant("reduce", reducer, "snapshot", LANE, now, &[]);
        self.reducers[reducer].snapshotting = false;
        self.maybe_start_final(reducer);
    }

    // --- hash reduce ---------------------------------------------------------

    fn on_inc_update_done(&mut self, reducer: usize) {
        self.reducers[reducer].pending_updates -= 1;
        self.maybe_start_final(reducer);
    }

    fn on_cold_spill_written(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        self.sampler.count(Counter::DiskWriteMb, now, mb);
        self.trace_instant("reduce", reducer, "cold_spill", "spill", now, &[("mb", mb)]);
        self.spill_written_mb += mb;
        self.reducers[reducer].pending_spills -= 1;
        self.reducers[reducer].cold_total_mb += mb;
        self.maybe_start_final(reducer);
    }

    // --- final phase -----------------------------------------------------------

    fn reducer_quiescent(&self, reducer: usize) -> bool {
        let r = &self.reducers[reducer];
        self.all_segments_arrived(reducer)
            && r.pending_spills == 0
            && !r.merging
            && !r.snapshotting
            && r.pending_updates == 0
    }

    fn maybe_start_final(&mut self, reducer: usize) {
        if self.reducers[reducer].state != ReducerState::Shuffling
            || !self.reducer_quiescent(reducer)
        {
            return;
        }
        // Sort-merge: if still above F runs, keep multipassing first.
        if matches!(self.spec.system, SystemType::StockHadoop | SystemType::Hop)
            && self.reducers[reducer].runs.len() > self.spec.merge_factor
        {
            // End-of-job multipass: bring the file count down to F.
            self.maybe_background_merge(reducer, true);
            return;
        }
        // §III-B.4: the sort-merge reducer writes its in-memory tail to
        // disk "waiting for all future data to produce a single sorted
        // run" — even when memory would have sufficed. This is the spill
        // Table I records for the counting workloads (1.4 GB / 0.2 GB).
        if matches!(self.spec.system, SystemType::StockHadoop | SystemType::Hop)
            && self.reducers[reducer].buffered_mb > 0.0
        {
            let spill_mb =
                self.reducers[reducer].buffered_mb * self.spec.workload.reduce_spill_ratio;
            self.reducers[reducer].buffered_mb = 0.0;
            self.reducers[reducer].pending_spills += 1;
            let node = self.reducers[reducer].node;
            self.res[self.idx.inter_disk(node)].request(
                &mut self.q,
                spill_mb,
                Action::SpillWritten {
                    reducer,
                    mb: spill_mb,
                },
            );
            return; // re-enter via SpillWritten -> maybe_start_final
        }
        self.reducers[reducer].state = ReducerState::Finalizing;
        let now = self.q.now();
        self.sampler.adjust(Gauge::ReduceTasks, now, 1.0);
        self.trace_end("reduce", reducer, "shuffle", LANE, now);
        self.trace_begin("reduce", reducer, "finish", LANE, now);
        let node = self.reducers[reducer].node;
        let read_mb = match self.spec.system {
            SystemType::StockHadoop | SystemType::Hop => {
                // Final merge reads all on-disk runs.
                self.reducers[reducer].runs.iter().sum::<f64>()
            }
            SystemType::HashOnePass => {
                // Resolve the cold spill once.
                self.reducers[reducer].cold_total_mb + self.reducers[reducer].cold_pending_mb
            }
        };
        self.reducers[reducer].final_read_mb = read_mb;
        if read_mb > 0.0 {
            self.res[self.idx.inter_disk(node)].request(
                &mut self.q,
                read_mb,
                Action::FinalRead {
                    reducer,
                    mb: read_mb,
                },
            );
        } else {
            self.q.schedule(0, Action::FinalRead { reducer, mb: 0.0 });
        }
    }

    fn on_final_read(&mut self, reducer: usize, mb: f64) {
        let now = self.q.now();
        if mb > 0.0 {
            self.sampler.count(Counter::DiskReadMb, now, mb);
            self.merge_read_mb += mb;
        }
        let node = self.reducers[reducer].node;
        let w = &self.spec.workload;
        let c = &self.spec.cost;
        let total_mb = mb + self.reducers[reducer].buffered_mb;
        let cpu_s = match self.spec.system {
            SystemType::StockHadoop | SystemType::Hop => {
                total_mb * (c.cpu_merge_s_mb + c.cpu_reduce_s_mb * w.reduce_cpu_weight)
            }
            // Hash: only the cold remainder needs work; hot keys are done.
            SystemType::HashOnePass => mb * (c.cpu_inc_update_s_mb * w.reduce_cpu_weight) + 0.5,
        };
        self.res[self.idx.cpu(node)].request(&mut self.q, cpu_s, Action::FinalCpuDone { reducer });
    }

    fn on_final_cpu_done(&mut self, reducer: usize) {
        let attempt = self.reducers[reducer].attempt;
        if self.spec.faults.reduce_attempt_fails(reducer, attempt) {
            // The reduce attempt dies after its CPU pass; the replacement
            // replays the final phase from the on-disk runs (the engine's
            // retained-segment replay, priced as re-read + re-reduce).
            let now = self.q.now();
            self.retries += 1;
            self.reducers[reducer].attempt += 1;
            self.trace_instant(
                "driver",
                0,
                "task_failed",
                "fault",
                now,
                &[("reducer", reducer as f64), ("attempt", attempt as f64)],
            );
            self.trace_instant(
                "driver",
                0,
                "retry",
                "fault",
                now,
                &[
                    ("reducer", reducer as f64),
                    ("attempt", (attempt + 1) as f64),
                ],
            );
            let node = self.reducers[reducer].node;
            let mb = self.reducers[reducer].final_read_mb;
            if mb > 0.0 {
                self.res[self.idx.inter_disk(node)].request(
                    &mut self.q,
                    mb,
                    Action::FinalRead { reducer, mb },
                );
            } else {
                self.q.schedule(0, Action::FinalRead { reducer, mb: 0.0 });
            }
            return;
        }
        let node = self.reducers[reducer].node;
        let out_mb = self.spec.workload.input_mb * self.spec.workload.output_ratio
            / self.reducers.len() as f64;
        if self.spec.cluster.dfs_is_remote() {
            // Output travels over the NIC to a storage node's disk.
            self.res[self.idx.nic(node)].request(
                &mut self.q,
                out_mb,
                Action::FinalWrittenLocal {
                    reducer,
                    mb: out_mb,
                },
            );
        } else {
            self.res[self.idx.data_disk(node)].request(
                &mut self.q,
                out_mb,
                Action::FinalWritten { reducer },
            );
        }
    }

    fn on_final_written_local(&mut self, reducer: usize, mb: f64) {
        // Second hop: the storage node's disk absorbs the write.
        let s = reducer % self.idx.storage_nodes.max(1);
        self.res[self.idx.storage_disk(s)].request(
            &mut self.q,
            mb,
            Action::FinalWritten { reducer },
        );
    }

    fn on_final_written(&mut self, reducer: usize) {
        let now = self.q.now();
        let out_mb = self.spec.workload.input_mb * self.spec.workload.output_ratio
            / self.reducers.len() as f64;
        self.sampler.count(Counter::DiskWriteMb, now, out_mb);
        self.sampler.adjust(Gauge::ReduceTasks, now, -1.0);
        self.trace_end("reduce", reducer, "finish", LANE, now);
        self.trace_end("reduce", reducer, "reduce_task", "task", now);
        self.reducers[reducer].state = ReducerState::Done;
        self.reducers_done += 1;
        if self.reducers_done == self.reducers.len() {
            self.completion = Some(now);
        }
    }

    // --- dispatch ---------------------------------------------------------------

    fn dispatch(&mut self, action: Action) {
        match action {
            Action::MapLoadedRemoteDisk { task, attempt } => {
                // Remote DFS read: source disk done, now the compute
                // node's NIC.
                let node = self.attempt_node[task][attempt];
                let now = self.q.now();
                self.sampler
                    .count(Counter::DiskReadMb, now, self.spec.cluster.block_mb);
                self.res[self.idx.nic(node)].request(
                    &mut self.q,
                    self.spec.cluster.block_mb,
                    Action::MapLoadedNic { task, attempt },
                );
            }
            Action::MapLoadedNic { task, attempt } => {
                self.sampler
                    .count(Counter::NetMb, self.q.now(), self.spec.cluster.block_mb);
                self.on_map_loaded(task, attempt);
            }
            Action::MapLoaded { task, attempt } => {
                let now = self.q.now();
                self.sampler
                    .count(Counter::DiskReadMb, now, self.spec.cluster.block_mb);
                self.on_map_loaded(task, attempt);
            }
            Action::MapComputed { task, attempt } => self.on_map_computed(task, attempt),
            Action::MapWritten { task, attempt } => self.on_map_written(task, attempt),
            Action::SegmentArrived { reducer, mb } => self.on_segment_arrived(reducer, mb, true),
            Action::ChunkArrived { reducer, mb } => self.on_segment_arrived(reducer, mb, false),
            Action::SpillWritten { reducer, mb } => self.on_spill_written(reducer, mb),
            Action::MergeRead { reducer, mb } => self.on_merge_read(reducer, mb),
            Action::MergeCpuDone { reducer, mb } => self.on_merge_cpu_done(reducer, mb),
            Action::MergeWritten { reducer, mb } => self.on_merge_written(reducer, mb),
            Action::SnapshotRead { reducer, mb } => self.on_snapshot_read(reducer, mb),
            Action::SnapshotCpuDone { reducer } => self.on_snapshot_cpu_done(reducer),
            Action::FinalRead { reducer, mb } => self.on_final_read(reducer, mb),
            Action::FinalCpuDone { reducer } => self.on_final_cpu_done(reducer),
            Action::FinalWrittenLocal { reducer, mb } => self.on_final_written_local(reducer, mb),
            Action::FinalWritten { reducer } => self.on_final_written(reducer),
            Action::IncUpdateDone { reducer } => self.on_inc_update_done(reducer),
            Action::ColdSpillWritten { reducer, mb } => self.on_cold_spill_written(reducer, mb),
            Action::CpuSink => {}
        }
    }

    fn run(mut self) -> SimReport {
        // Job start: all reducers enter shuffle state; initial map wave.
        self.trace_begin("driver", 0, "job", "job", 0);
        for r in 0..self.reducers.len() {
            self.trace_begin("reduce", r, "reduce_task", "task", 0);
            self.trace_begin("reduce", r, "shuffle", LANE, 0);
        }
        self.sampler
            .set(Gauge::ShuffleTasks, 0, self.reducers.len() as f64);
        self.schedule_maps();
        let mut events = 0u64;
        while let Some((_, payload)) = self.q.pop() {
            events += 1;
            match payload {
                EventPayload::Act(a) => self.dispatch(a),
                EventPayload::ResourceDone { res, action } => {
                    self.res[res].on_done(&mut self.q);
                    self.dispatch(action);
                }
            }
            self.refresh_resource_gauges();
        }
        let end = self.completion.unwrap_or_else(|| self.q.now());
        self.trace_end("driver", 0, "job", "job", end);
        let local_map_fraction = if self.local_maps + self.remote_maps == 0 {
            0.0
        } else {
            self.local_maps as f64 / (self.local_maps + self.remote_maps) as f64
        };
        SimReport::build(
            &self.spec,
            end,
            events,
            self.total_maps,
            self.spill_written_mb,
            self.merge_read_mb,
            self.merge_written_mb,
            self.snapshots_taken,
            local_map_fraction,
            crate::report::FaultCounters {
                map_attempts: self.map_attempts,
                retries: self.retries,
                speculative_launched: self.speculative_launched,
                speculative_wins: self.speculative_wins,
            },
            &mut self.sampler,
        )
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
        assert_eq!(hash.merge_read_mb_background(), 0.0);
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

    #[test]
    fn higher_replication_improves_locality_and_runtime() {
        let mk = |replication: usize| {
            let mut spec = SimJobSpec::new(
                SystemType::StockHadoop,
                ClusterSpec::paper_cluster(StorageConfig::SingleHdd),
                WorkloadProfile::sessionization().scaled(0.05),
            );
            spec.reduce_mem_mb = 20.0;
            spec.replication = replication;
            run_sim_job(spec)
        };
        let r1 = mk(1);
        let r3 = mk(3);
        assert!(
            r3.local_map_fraction >= r1.local_map_fraction,
            "replication 3 locality {} < replication 1 locality {}",
            r3.local_map_fraction,
            r1.local_map_fraction
        );
    }
}
