//! The coordinator side of the TCP transport, as a state machine.
//!
//! [`Coordinator`] makes every decision the coordinator makes about its
//! workers: which link a map attempt ships on, when a link is dead, and
//! what becomes of the attempts a dead link held. It makes nothing else:
//! it spawns no thread, takes no lock, reads no clock and touches no
//! socket. Its inputs are an assignment from the scheduler, a control
//! frame or a hang-up from a link, and a clock tick, and every instant it
//! sees is passed in. Its outputs are [`Action`]s, which the driver thread
//! of [`super::cluster`] carries out. The tests below run the same
//! machine against simulated workers, one seed at a time.
//!
//! * **Dispatch** — each link takes at most `slots` attempts at once
//!   (the in-proc map pool size spread over the links, so local and
//!   distributed runs schedule comparably); a queued assignment waits for
//!   a free slot, and one the scheduler cancelled meanwhile is answered
//!   `Cancelled` without being sent.
//! * **Liveness** — a link is lost on hang-up, on a failed write, on a
//!   refusal, or after [`PONG_TIMEOUT`] without a pong. Its in-flight
//!   attempts fail back to the scheduler, which reruns them elsewhere;
//!   attempt-aware dedup on the reduce side makes the rerun invisible in
//!   the output. Once every link is lost, each assignment fails at once,
//!   so the scheduler's retry budget runs out instead of the job hanging.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onepass_core::error::{Error, Result};
use onepass_core::obs::Histogram;

use super::wire::Frame;
use crate::map_task::MapTaskStats;
use crate::scheduler::MapAssignment;

/// How long a worker may go without answering heartbeats before it is
/// declared dead. Deliberately conservative: socket EOF is the primary
/// death signal (a killed process closes its sockets immediately); the
/// timeout only catches wedged-but-connected workers.
pub(crate) const PONG_TIMEOUT: Duration = Duration::from_secs(10);
/// Heartbeat period.
pub(crate) const PING_EVERY: Duration = Duration::from_millis(250);

/// What the coordinator asks of its driver.
#[derive(Debug)]
pub(crate) enum Action {
    /// Write a frame to a link. A write that fails severs the link, whose
    /// reader then reports the hang-up.
    Send(usize, Frame),
    /// A link is lost: sever it, so that its reader stops, and put a
    /// `worker_dead` instant on the trace.
    Lost(usize),
    /// The result of map attempt `(task, attempt)`, for the scheduler.
    Finished(usize, usize, Result<MapTaskStats>),
}

/// One worker connection.
struct Link {
    peer: String,
    alive: bool,
    /// Attempts `(task, attempt)` shipped on this link and not yet
    /// answered, with the scheduler's cancel flag of each.
    inflight: Vec<((usize, usize), Arc<AtomicBool>)>,
    /// Last heartbeat sent: nonce (counted per link) and send time.
    ping: (u64, Instant),
    last_pong: Instant,
}

/// The decisions of one TCP job's coordinator.
pub(crate) struct Coordinator {
    links: Vec<Link>,
    /// Attempts in flight per link, at most.
    slots: usize,
    /// Assignments waiting for a free slot.
    queue: VecDeque<MapAssignment>,
    /// Actions to carry out, in the order they were decided.
    pub(crate) out: VecDeque<Action>,
    /// First reason a worker refused the job: the root cause behind
    /// whatever the scheduler saw.
    pub(crate) rejection: Option<String>,
    rtt: Histogram,
}

impl Coordinator {
    /// A coordinator over one link per peer, all connected at `now`. The
    /// in-proc map `pool` size caps the attempts in flight over all links.
    pub(crate) fn new(peers: Vec<String>, pool: usize, now: Instant, rtt: Histogram) -> Self {
        let slots = pool.div_ceil(peers.len()).max(1);
        Coordinator {
            links: peers
                .into_iter()
                .map(|peer| Link {
                    peer,
                    alive: true,
                    inflight: Vec::new(),
                    ping: (0, now),
                    last_pong: now,
                })
                .collect(),
            slots,
            queue: VecDeque::new(),
            out: VecDeque::new(),
            rejection: None,
            rtt,
        }
    }

    /// The scheduler assigned a map attempt.
    pub(crate) fn assign(&mut self, asg: MapAssignment) {
        self.queue.push_back(asg);
        self.pump();
    }

    /// A control frame arrived on `link` at `now`. Data frames (`Segment`,
    /// `MapDone`) never come here: they go straight into the shuffle, ahead
    /// of the `MapOk` that follows them on the same connection.
    pub(crate) fn on_frame(&mut self, link: usize, frame: Frame, now: Instant) {
        let (task, attempt, result) = match frame {
            Frame::MapOk {
                task,
                attempt,
                stats,
            } => (task, attempt, Ok(stats)),
            Frame::MapFailed {
                task,
                attempt,
                error,
            } => (task, attempt, Err(Error::InvalidState(error))),
            Frame::Pong { nonce } => {
                let l = &mut self.links[link];
                if l.ping.0 == nonce {
                    self.rtt
                        .observe_duration(now.saturating_duration_since(l.ping.1));
                }
                l.last_pong = now;
                return;
            }
            Frame::JobRejected { reason } => {
                let peer = &self.links[link].peer;
                self.rejection.get_or_insert(format!("{peer}: {reason}"));
                return self.link_down(link);
            }
            // Coordinator→worker shapes echoed back, or protocol noise:
            // ignore rather than kill the job.
            _ => return,
        };
        // An answer for an attempt the link no longer holds (it was
        // declared dead meanwhile) is dropped.
        let key = (task as usize, attempt as usize);
        let inflight = &mut self.links[link].inflight;
        if let Some(i) = inflight.iter().position(|(k, _)| *k == key) {
            let (_, cancel) = inflight.swap_remove(i);
            self.finish(key, &cancel, result);
            self.pump();
        }
    }

    /// `link`'s reader reached the end of its stream: the worker hung up,
    /// or the link was severed. Idempotent.
    pub(crate) fn link_down(&mut self, link: usize) {
        let l = &mut self.links[link];
        if !std::mem::replace(&mut l.alive, false) {
            return;
        }
        let lost = format!("worker {} lost", l.peer);
        self.out.push_back(Action::Lost(link));
        for (key, cancel) in std::mem::take(&mut l.inflight) {
            self.finish(key, &cancel, Err(Error::InvalidState(lost.clone())));
        }
        self.pump();
    }

    /// A heartbeat period passed: declare silent links dead, ping the rest.
    pub(crate) fn tick(&mut self, now: Instant) {
        for link in 0..self.links.len() {
            let l = &mut self.links[link];
            if l.alive && now.saturating_duration_since(l.last_pong) > PONG_TIMEOUT {
                self.link_down(link);
            } else if l.alive {
                l.ping = (l.ping.0 + 1, now);
                self.out
                    .push_back(Action::Send(link, Frame::Ping { nonce: l.ping.0 }));
            }
        }
    }

    fn finish(&mut self, key: (usize, usize), cancel: &AtomicBool, r: Result<MapTaskStats>) {
        // A failure of an attempt the scheduler cancelled (the job is going
        // down) is not a real failure; don't charge the retry budget.
        let r = match r {
            Err(_) if cancel.load(Ordering::SeqCst) => Err(Error::Cancelled),
            r => r,
        };
        self.out.push_back(Action::Finished(key.0, key.1, r));
    }

    /// Ship queued assignments while slots are free.
    fn pump(&mut self) {
        while let Some(asg) = self.queue.pop_front() {
            let key = (asg.task, asg.attempt);
            let free = (0..self.links.len())
                .filter(|&l| self.links[l].alive && self.links[l].inflight.len() < self.slots)
                .min_by_key(|&l| self.links[l].inflight.len());
            if asg.cancel.load(Ordering::SeqCst) {
                self.finish(key, &asg.cancel, Err(Error::Cancelled));
            } else if let Some(link) = free {
                let l = &mut self.links[link];
                l.inflight.push((key, Arc::clone(&asg.cancel)));
                let frame = Frame::NewSplit {
                    task: key.0 as u64,
                    attempt: key.1 as u64,
                    split: asg.split,
                };
                self.out.push_back(Action::Send(link, frame));
            } else if self.links.iter().any(|l| l.alive) {
                self.queue.push_front(asg);
                return;
            } else {
                let peers: Vec<&str> = self.links.iter().map(|l| l.peer.as_str()).collect();
                let lost = format!("all workers lost ({})", peers.join(", "));
                self.finish(key, &asg.cancel, Err(Error::InvalidState(lost)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_task::Split;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn assignment(task: usize, attempt: usize) -> MapAssignment {
        MapAssignment {
            task,
            attempt,
            split: Split::new(Vec::new()),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    fn drain(core: &mut Coordinator) -> Vec<Action> {
        core.out.drain(..).collect()
    }

    /// The heartbeat backstop, in injected time: a worker that stays
    /// connected but silent is declared dead once `PONG_TIMEOUT` has
    /// passed, not before, while one that answers every ping lives on and
    /// takes over the silent one's attempt.
    #[test]
    fn a_silent_worker_dies_after_pong_timeout_and_its_attempt_reruns() {
        let t0 = Instant::now();
        let peers = vec!["talks".to_string(), "silent".to_string()];
        let mut core = Coordinator::new(peers, 2, t0, Histogram::detached());
        core.assign(assignment(0, 0));
        core.assign(assignment(1, 0));
        let shipped: Vec<(usize, u64)> = drain(&mut core)
            .into_iter()
            .map(|a| match a {
                Action::Send(link, Frame::NewSplit { task, .. }) => (link, task),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(shipped, [(0, 0), (1, 1)], "one slot per link");

        let mut now = t0;
        let lost = loop {
            now += PING_EVERY;
            assert!(now <= t0 + PONG_TIMEOUT + PING_EVERY, "never declared");
            core.tick(now);
            let actions = drain(&mut core);
            if actions.iter().any(|a| matches!(a, Action::Lost(_))) {
                break actions;
            }
            for action in actions {
                match action {
                    Action::Send(0, Frame::Ping { nonce }) => {
                        core.on_frame(0, Frame::Pong { nonce }, now)
                    }
                    Action::Send(1, Frame::Ping { .. }) => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        assert!(now > t0 + PONG_TIMEOUT, "declared dead early");
        assert!(
            matches!(
                &lost[..],
                [
                    Action::Send(0, Frame::Ping { .. }),
                    Action::Lost(1),
                    Action::Finished(1, 0, Err(Error::InvalidState(msg))),
                ] if msg == "worker silent lost"
            ),
            "{lost:?}"
        );

        // The retry waits for the survivor's slot, then ships to it.
        core.assign(assignment(1, 1));
        assert!(drain(&mut core).is_empty());
        let stats = MapTaskStats::default();
        core.on_frame(
            0,
            Frame::MapOk {
                task: 0,
                attempt: 0,
                stats,
            },
            now,
        );
        let actions = drain(&mut core);
        assert!(
            matches!(
                actions[..],
                [
                    Action::Finished(0, 0, Ok(_)),
                    Action::Send(
                        0,
                        Frame::NewSplit {
                            task: 1,
                            attempt: 1,
                            ..
                        }
                    )
                ]
            ),
            "{actions:?}"
        );
    }

    /// How a simulated worker behaves.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        /// Runs every split it is sent and answers every ping.
        Answers,
        /// As `Answers`, but fails a third of its maps.
        Fails,
        /// As `Answers`, until it hangs up at a random step.
        Disconnects,
        /// Stays connected and never answers anything.
        Silent,
        /// Refuses the job and hangs up.
        Rejects,
    }

    const KINDS: [Kind; 5] = [
        Kind::Answers,
        Kind::Fails,
        Kind::Disconnects,
        Kind::Silent,
        Kind::Rejects,
    ];

    /// A simulated worker and its connection, each direction FIFO.
    struct Worker {
        kind: Kind,
        /// Coordinator → worker frames not yet read.
        inbox: VecDeque<Frame>,
        /// Worker → coordinator frames not yet read.
        outbox: VecDeque<Frame>,
        /// Splits received and not yet answered.
        running: Vec<(u64, u64)>,
        /// The worker's end is closed: it reads and writes nothing more.
        closed: bool,
        /// The coordinator's reader has seen the hang-up.
        read_eof: bool,
        /// The coordinator declared the link lost.
        lost: bool,
    }

    /// Paths the sweep must reach, counted over every seed.
    #[derive(Default, Debug)]
    struct Reached {
        succeeded: usize,
        failed: usize,
        all_lost: usize,
        silent_dead: usize,
        refused: usize,
        cancelled_unsent: usize,
    }

    /// One seeded run: a coordinator, 1–4 simulated workers, and the
    /// executor's scheduler reduced to its retry loop.
    struct Sim {
        rng: StdRng,
        core: Coordinator,
        workers: Vec<Worker>,
        /// Attempts in flight per link, at most.
        slots: usize,
        t0: Instant,
        now: Instant,
        /// Attempts allowed per task: the executor's `workers + 2`.
        budget: usize,
        /// Attempts made, and success, per task.
        tasks: Vec<(usize, bool)>,
        /// Attempts assigned and not yet finished, with their cancel flags.
        outstanding: BTreeMap<(usize, usize), Arc<AtomicBool>>,
        /// The link each shipped attempt went to, until it finishes.
        shipped: BTreeMap<(usize, usize), usize>,
        fatal: Option<Error>,
    }

    impl Sim {
        fn new(seed: u64) -> Sim {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=4usize);
            let pool = rng.gen_range(1..=4usize);
            let workers = (0..n)
                .map(|_| {
                    let kind = KINDS[rng.gen_range(0..KINDS.len())];
                    let refusal = Frame::JobRejected {
                        reason: "no such job".into(),
                    };
                    let rejects = kind == Kind::Rejects;
                    Worker {
                        kind,
                        inbox: VecDeque::new(),
                        outbox: rejects.then_some(refusal).into_iter().collect(),
                        running: Vec::new(),
                        closed: rejects,
                        read_eof: false,
                        lost: false,
                    }
                })
                .collect();
            let tasks = vec![(0, false); rng.gen_range(1..=12usize)];
            let t0 = Instant::now();
            let peers = (0..n).map(|l| format!("w{l}")).collect();
            let mut sim = Sim {
                rng,
                core: Coordinator::new(peers, pool, t0, Histogram::detached()),
                workers,
                slots: pool.div_ceil(n),
                t0,
                now: t0,
                budget: n + 2,
                tasks,
                outstanding: BTreeMap::new(),
                shipped: BTreeMap::new(),
                fatal: None,
            };
            for task in 0..sim.tasks.len() {
                sim.assign(task);
            }
            sim
        }

        fn assign(&mut self, task: usize) {
            let asg = assignment(task, self.tasks[task].0);
            self.tasks[task].0 += 1;
            let cancel = Arc::clone(&asg.cancel);
            self.outstanding.insert((task, asg.attempt), cancel);
            self.core.assign(asg);
        }

        /// The job fails: cancel every attempt still queued or running.
        fn fail(&mut self, e: Error) {
            self.fatal = Some(e);
            for cancel in self.outstanding.values() {
                cancel.store(true, Ordering::SeqCst);
            }
        }

        /// Carry out the core's actions, checking each.
        fn carry_out(&mut self, reached: &mut Reached) -> std::result::Result<(), String> {
            loop {
                let batch = drain(&mut self.core);
                if batch.is_empty() {
                    return Ok(());
                }
                // Every action of a batch was decided before carrying any
                // out can cancel an attempt.
                for action in &batch {
                    if let Action::Send(_, Frame::NewSplit { task, attempt, .. }) = action {
                        let key = (*task as usize, *attempt as usize);
                        let cancel = self.outstanding.get(&key);
                        if cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                            return Err(format!("shipped cancelled {key:?}"));
                        }
                    }
                }
                for action in batch {
                    self.carry_out_one(action, reached)?;
                }
            }
        }

        fn carry_out_one(
            &mut self,
            action: Action,
            reached: &mut Reached,
        ) -> std::result::Result<(), String> {
            match action {
                Action::Send(l, frame) => {
                    if self.workers[l].lost {
                        return Err(format!("sent to link {l} after it went down"));
                    }
                    if let Frame::NewSplit { task, attempt, .. } = &frame {
                        let key = (*task as usize, *attempt as usize);
                        if !self.outstanding.contains_key(&key)
                            || self.shipped.insert(key, l).is_some()
                        {
                            return Err(format!("shipped {key:?} twice or unassigned"));
                        }
                        let on_link = self.shipped.values().filter(|&&x| x == l).count();
                        if on_link > self.slots {
                            return Err(format!(
                                "{on_link} in flight on link {l}, cap {}",
                                self.slots
                            ));
                        }
                    }
                    self.workers[l].inbox.push_back(frame);
                }
                Action::Lost(l) => {
                    let w = &mut self.workers[l];
                    if w.lost {
                        return Err(format!("link {l} declared lost twice"));
                    }
                    if !w.closed && w.kind != Kind::Silent {
                        return Err(format!("responsive {:?} link {l} declared dead", w.kind));
                    }
                    if !w.closed && self.now.duration_since(self.t0) <= PONG_TIMEOUT {
                        return Err(format!("silent link {l} declared dead early"));
                    }
                    reached.silent_dead += usize::from(!w.closed);
                    // Frames in flight may or may not reach the reader.
                    let keep = self.rng.gen_range(0..=w.outbox.len());
                    w.outbox.truncate(keep);
                    w.closed = true;
                    w.lost = true;
                }
                Action::Finished(task, attempt, result) => {
                    let Some(cancel) = self.outstanding.remove(&(task, attempt)) else {
                        return Err(format!("({task}, {attempt}) finished twice"));
                    };
                    let was_shipped = self.shipped.remove(&(task, attempt)).is_some();
                    match result {
                        Ok(_) if was_shipped => self.tasks[task].1 = true,
                        Ok(_) => return Err(format!("unsent ({task}, {attempt}) succeeded")),
                        Err(Error::Cancelled) if !cancel.load(Ordering::SeqCst) => {
                            return Err(format!("({task}, {attempt}) cancelled unasked"));
                        }
                        Err(Error::Cancelled) => {
                            reached.cancelled_unsent += usize::from(!was_shipped)
                        }
                        Err(e) => {
                            if let Error::InvalidState(msg) = &e {
                                reached.all_lost +=
                                    usize::from(msg.starts_with("all workers lost"));
                            }
                            if self.fatal.is_some() {
                                // The job is going down; nothing to recover.
                            } else if self.tasks[task].0 < self.budget {
                                self.assign(task);
                            } else {
                                self.fail(e);
                            }
                        }
                    }
                }
            }
            Ok(())
        }

        /// Take one step: a link delivers its next frame either way, a
        /// worker answers a split or hangs up, a heartbeat period passes
        /// (rarely, while anything else can happen), or the job fails from
        /// outside the map side (more rarely still).
        fn step(&mut self) -> std::result::Result<(), String> {
            let mut moves = Vec::new();
            for (l, w) in self.workers.iter().enumerate() {
                if !w.inbox.is_empty() {
                    moves.push((l, 0));
                }
                if !w.outbox.is_empty() || (w.closed && !w.read_eof) {
                    moves.push((l, 1));
                }
                if !w.closed && !w.running.is_empty() && w.kind != Kind::Silent {
                    moves.push((l, 2));
                }
                if !w.closed && w.kind == Kind::Disconnects && self.rng.gen_bool(0.05) {
                    moves.push((l, 3));
                }
            }
            if self.fatal.is_none() && self.rng.gen_bool(0.002) {
                self.fail(Error::InvalidState("upstream failed".into()));
                return Ok(());
            }
            if moves.is_empty() || self.rng.gen_bool(1.0 / 16.0) {
                self.now += PING_EVERY;
                self.core.tick(self.now);
                return Ok(());
            }
            let (l, m) = moves[self.rng.gen_range(0..moves.len())];
            let w = &mut self.workers[l];
            match m {
                // The worker reads a frame.
                0 => match w.inbox.pop_front() {
                    Some(_) if w.closed || w.kind == Kind::Silent => {}
                    Some(Frame::NewSplit { task, attempt, .. }) => w.running.push((task, attempt)),
                    Some(Frame::Ping { nonce }) => w.outbox.push_back(Frame::Pong { nonce }),
                    other => return Err(format!("worker {l} read {other:?}")),
                },
                // The coordinator's reader reads a frame, or the hang-up.
                1 => match w.outbox.pop_front() {
                    Some(frame) => self.core.on_frame(l, frame, self.now),
                    None => {
                        w.read_eof = true;
                        self.core.link_down(l);
                    }
                },
                // The worker finishes one of its splits.
                2 => {
                    let i = self.rng.gen_range(0..w.running.len());
                    let (task, attempt) = w.running.swap_remove(i);
                    let frame = if w.kind == Kind::Fails && self.rng.gen_bool(1.0 / 3.0) {
                        let error = "map failed".into();
                        Frame::MapFailed {
                            task,
                            attempt,
                            error,
                        }
                    } else {
                        let stats = MapTaskStats::default();
                        Frame::MapOk {
                            task,
                            attempt,
                            stats,
                        }
                    };
                    w.outbox.push_back(frame);
                }
                // The worker hangs up.
                _ => w.closed = true,
            }
            Ok(())
        }
    }

    /// Run seed `seed` to its end, checking every invariant at every step.
    fn simulate(seed: u64, reached: &mut Reached) -> std::result::Result<(), String> {
        let mut sim = Sim::new(seed);
        // It must end with every task `Ok` if a worker answers, none fails
        // maps, and nothing outside fails the job.
        let kinds: Vec<Kind> = sim.workers.iter().map(|w| w.kind).collect();
        let must_succeed = kinds.contains(&Kind::Answers) && !kinds.contains(&Kind::Fails);
        for step in 0..50_000 {
            sim.carry_out(reached)
                .map_err(|e| format!("step {step}: {e}"))?;
            if sim.outstanding.is_empty() {
                reached.refused += usize::from(sim.core.rejection.is_some());
                let all_ok = sim.tasks.iter().all(|&(_, ok)| ok);
                return match &sim.fatal {
                    None if all_ok => {
                        reached.succeeded += 1;
                        Ok(())
                    }
                    None => Err("ended with a task neither done nor failed".into()),
                    Some(Error::InvalidState(msg)) if must_succeed && msg != "upstream failed" => {
                        Err(format!("failed: {msg}"))
                    }
                    Some(_) => {
                        reached.failed += 1;
                        Ok(())
                    }
                };
            }
            sim.step().map_err(|e| format!("step {step}: {e}"))?;
        }
        Err("no end within 50000 steps".into())
    }

    /// Ten thousand seeded runs of the coordinator against simulated
    /// workers; every invariant is checked at every step. A failing seed
    /// is named in the panic; `COORDINATOR_SEED=<seed> cargo test -p
    /// onepass-runtime coordinator::tests` replays it alone.
    #[test]
    fn seeded_simulation_keeps_every_invariant() {
        let seeds = match std::env::var("COORDINATOR_SEED") {
            Ok(s) => {
                let seed = s.parse().expect("COORDINATOR_SEED is a u64");
                seed..seed + 1
            }
            Err(_) => 0..10_000,
        };
        let mut reached = Reached::default();
        for seed in seeds.clone() {
            if let Err(e) = simulate(seed, &mut reached) {
                panic!("seed {seed}: {e}");
            }
        }
        if seeds.end - seeds.start > 1 {
            let r = &reached;
            let counts = [
                r.succeeded,
                r.failed,
                r.all_lost,
                r.silent_dead,
                r.refused,
                r.cancelled_unsent,
            ];
            assert!(
                counts.iter().all(|&c| c > 0),
                "a path was never reached: {reached:?}"
            );
        }
    }
}
