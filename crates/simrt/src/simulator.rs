//! The discrete-event simulator: scheduler, event queue, and probe seam.
//!
//! One [`Simulator`] hosts a single app process (main + render + worker
//! threads) plus per-core pinned system threads that model the rest of
//! the device. User actions are scheduled onto the timeline, executed on
//! the main thread in message-queue order, and observed by installed
//! [`Probe`]s exactly the way Hang Doctor observes a real app: dispatch
//! begin/end hooks, per-thread performance counters, stack samples, and
//! timers.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::counters::HwEvent;
use crate::frame::{Frame, FrameId, FrameTable};
use crate::looper::{
    ActionInfo, ActionRecord, ActionRequest, ActionUid, ExecId, Message, MessageInfo,
};
use crate::name::{NameId, NameTable};
use crate::probe::{MonitorCost, Probe};
use crate::rng::{SimRng, SplitMix64};
use crate::thread::{
    ExecState, SimThread, ThreadId, ThreadKind, ThreadState, WorkItem, WorkSource,
};
use crate::time::{SimTime, MICROS, MILLIS, SECONDS};
use crate::work::{MemProfile, Step};

/// Static configuration of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Seed for the run's random stream.
    pub seed: u64,
    /// Number of CPU cores.
    pub cores: usize,
    /// Round-robin timeslice.
    pub timeslice_ns: u64,
    /// Nominal wake period of each per-core system thread.
    pub system_period_ns: u64,
    /// Nominal CPU burst of each system wake.
    pub system_burst_ns: u64,
    /// Number of background worker threads in the app.
    pub workers: usize,
    /// Hard horizon: the run stops (truncated) past this time.
    pub max_sim_ns: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            cores: 2,
            timeslice_ns: 10 * MILLIS,
            system_period_ns: 6 * MILLIS,
            system_burst_ns: 350 * MICROS,
            workers: 2,
            max_sim_ns: 48 * 3600 * SECONDS,
        }
    }
}

/// Result of [`Simulator::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Simulated time when the run stopped: the last event's time, or
    /// the horizon (`SimConfig::max_sim_ns`) itself when the run was
    /// truncated, whatever event lay beyond it.
    pub ended_at: SimTime,
    /// Whether the hard horizon truncated the run.
    pub truncated: bool,
    /// Number of completed action executions.
    pub actions_completed: usize,
}

/// Priorities: workers < main/render < system.
const PRIO_WORKER: u8 = 1;
const PRIO_APP: u8 = 2;
const PRIO_SYSTEM: u8 = 3;
const NUM_PRIOS: usize = 4;

/// An [`ActionRequest`] with its name already interned, as carried on
/// the event queue (the hot path never touches the `String` again).
#[derive(Debug)]
struct ArrivedRequest {
    uid: ActionUid,
    name: NameId,
    events: Vec<Vec<Step>>,
}

/// An event's place in the run's one total order: its time, then the
/// sequence number [`World::stamp`] gave it. Staged arrivals, heap
/// entries and the per-core slots all carry one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: SimTime,
    seq: u64,
}

/// The events that live on the heap. Each core's kworker pulse and
/// slice boundary live in its [`CoreSlot`] instead.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Wake a blocked app thread (I/O done or a joined task finished).
    Wake { tid: usize },
    /// A probe timer fires.
    ProbeTimer { probe: usize, token: u64 },
}

struct QEntry {
    due: Due,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the BinaryHeap pops the earliest (time, seq) first.
        other.due.cmp(&self.due)
    }
}

/// Where the run's next event comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The head of the staged arrivals.
    Arrival,
    /// The top of the heap.
    Heap,
    /// The kworker pulse of a core.
    Pulse(usize),
    /// The slice boundary of a core.
    Slice(usize),
}

#[derive(Clone, Copy, Debug, Default)]
struct CoreSlot {
    running: Option<usize>,
    slice_end: SimTime,
    accrue_from: SimTime,
    /// The running app thread's next segment-or-slice boundary; `None`
    /// while the core is free or its kworker runs. `start_run` and
    /// `handle_slice` set it, `off_cpu` clears it.
    slice_due: Option<Due>,
    /// The kworker's pending event: the end of its burst while it runs
    /// (`running == Some(pulse_tid)`), its next wake otherwise. Every
    /// core has one from `World::new` on.
    pulse_due: Due,
    /// The system thread pinned to this core. While it runs, its burst's
    /// clocks are already booked, so incremental accrual skips the core.
    pulse_tid: usize,
    /// The pulse train's own stream, seeded once in `World::new`: one
    /// draw per cycle, never from the world's stream.
    pulse_rng: SplitMix64,
    /// Period from the current burst's end to the next wake, drawn at
    /// wake together with the burst length.
    pulse_period: u64,
}

impl CoreSlot {
    fn in_burst(&self) -> bool {
        self.running == Some(self.pulse_tid)
    }
}

/// The law of a kworker pulse cycle: the burst is uniform in
/// `[burst/2, 3·burst/2)` and the period from its end to the next wake
/// uniform in `period·[0.55, 1.45)`.
#[derive(Clone, Copy, Debug)]
struct PulseLaw {
    burst_lo: u64,
    burst_span: u64,
    period_lo: u64,
    period_span: u64,
}

impl PulseLaw {
    fn new(period_ns: u64, burst_ns: u64) -> PulseLaw {
        let pct = |ns: u64, p: u64| (u128::from(ns) * u128::from(p) / 100) as u64;
        PulseLaw {
            burst_lo: burst_ns / 2,
            burst_span: burst_ns,
            period_lo: pct(period_ns, 55),
            period_span: pct(period_ns, 90),
        }
    }

    /// Turns one 64-bit draw into `(burst, period)`, each at least 1 ns,
    /// by integer multiply-shift: the low half picks the burst, the high
    /// half the period. `pulse_wake` and the idle loop both call it, once
    /// per cycle.
    #[inline]
    fn cycle(&self, draw: u64) -> (u64, u64) {
        let scale = |bits: u64, span: u64| ((u128::from(bits) * u128::from(span)) >> 32) as u64;
        (
            (self.burst_lo + scale(draw & 0xFFFF_FFFF, self.burst_span)).max(1),
            (self.period_lo + scale(draw >> 32, self.period_span)).max(1),
        )
    }
}

#[derive(Debug)]
struct ActiveAction {
    exec_id: ExecId,
    uid: ActionUid,
    name: NameId,
    posted: SimTime,
    began: Option<SimTime>,
    responses: Vec<u64>,
    num_events: usize,
    events_done: usize,
    finished_main: Option<SimTime>,
}

#[derive(Debug)]
enum Notice {
    ActionBegin(ActionInfo),
    DispatchBegin(MessageInfo),
    DispatchEnd(MessageInfo, u64),
    ActionEnd(ActionRecord),
    Timer { probe: usize, token: u64 },
}

/// Lifecycle state of a task submitted to a bounded executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// Waiting in the executor's submission queue.
    Queued,
    /// Executing on the given thread.
    Running {
        /// The executor thread running the task.
        tid: ThreadId,
    },
    /// Finished; joins on it complete instantly.
    Done,
}

/// Public record of one executor task (task id == index in
/// [`Simulator::task_records`]), exposed for tests and probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRecord {
    /// Executor the task was submitted to.
    pub executor: usize,
    /// Final (or current) lifecycle state.
    pub status: TaskStatus,
    /// When [`Step::PostTask`] ran (the submit edge).
    pub posted: SimTime,
    /// When an executor thread dequeued and started it.
    pub started: Option<SimTime>,
    /// When its last step completed.
    pub finished: Option<SimTime>,
}

/// Internal state of one executor task.
#[derive(Debug)]
struct TaskState {
    executor: usize,
    status: TaskStatus,
    /// Body steps, present until an executor thread takes the task.
    steps: Option<Vec<Step>>,
    posted: SimTime,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    /// Threads blocked in [`Step::JoinTask`] on this task, woken at
    /// completion.
    waiters: Vec<usize>,
}

/// A bounded executor: a FIFO submission queue drained by a fixed set
/// of dedicated threads (`width == 1` models a serial executor).
#[derive(Debug)]
struct ExecutorState {
    queue: VecDeque<u64>,
    thread_tids: Vec<usize>,
}

pub(crate) struct World {
    cfg: SimConfig,
    now: SimTime,
    /// Pending wakes and probe timers.
    queue: BinaryHeap<QEntry>,
    seq: u64,
    threads: Vec<SimThread>,
    ready: [VecDeque<usize>; NUM_PRIOS],
    cores: Vec<CoreSlot>,
    pulse_law: PulseLaw,
    main_q: VecDeque<Message>,
    render_q: VecDeque<u64>,
    worker_q: VecDeque<Vec<Step>>,
    actions: VecDeque<ActiveAction>,
    /// User actions staged before the run, sorted by `(at, seq)` when
    /// `run` starts. Keeping them out of the transient-event heap keeps
    /// that heap a handful of entries deep for the whole run.
    arrivals: VecDeque<(Due, ArrivedRequest)>,
    frames: Arc<FrameTable>,
    names: NameTable,
    rng: SimRng,
    monitor: MonitorCost,
    records: Vec<ActionRecord>,
    /// Recycled step buffers for render frames, so the steady-state
    /// event loop never touches the allocator.
    spare_steps: Vec<VecDeque<Step>>,
    notices: Vec<Notice>,
    /// Set once a probe is installed; when clear, the hot loop skips
    /// notice construction entirely (including the per-action
    /// `ActionRecord` clone).
    notices_enabled: bool,
    pending_arrivals: usize,
    pending_probe_timers: usize,
    next_exec: u64,
    main_tid: usize,
    render_tid: usize,
    worker_tids: Vec<usize>,
    /// Bounded executors added with [`Simulator::add_executor`].
    executors: Vec<ExecutorState>,
    /// Global task table; a task's id is its index here.
    tasks: Vec<TaskState>,
}

impl World {
    fn new(cfg: SimConfig, frames: Arc<FrameTable>) -> World {
        let mut threads = Vec::new();
        let main_tid = threads.len();
        threads.push(SimThread::new(
            ThreadId(main_tid),
            "main",
            ThreadKind::Main,
            PRIO_APP,
            WorkSource::MainLooper,
        ));
        let render_tid = threads.len();
        threads.push(SimThread::new(
            ThreadId(render_tid),
            "RenderThread",
            ThreadKind::Render,
            PRIO_APP,
            WorkSource::RenderQueue,
        ));
        let mut worker_tids = Vec::new();
        for i in 0..cfg.workers {
            let tid = threads.len();
            worker_tids.push(tid);
            threads.push(SimThread::new(
                ThreadId(tid),
                format!("AsyncTask #{}", i + 1),
                ThreadKind::Worker,
                PRIO_WORKER,
                WorkSource::WorkerQueue,
            ));
        }
        let mut world = World {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            threads,
            ready: Default::default(),
            cores: vec![CoreSlot::default(); cfg.cores],
            pulse_law: PulseLaw::new(cfg.system_period_ns, cfg.system_burst_ns),
            main_q: VecDeque::new(),
            render_q: VecDeque::new(),
            worker_q: VecDeque::new(),
            actions: VecDeque::new(),
            arrivals: VecDeque::new(),
            frames,
            names: NameTable::new(),
            rng: SimRng::seed_from_u64(cfg.seed),
            monitor: MonitorCost::default(),
            records: Vec::new(),
            spare_steps: Vec::new(),
            notices: Vec::new(),
            notices_enabled: false,
            pending_arrivals: 0,
            pending_probe_timers: 0,
            next_exec: 0,
            main_tid,
            render_tid,
            worker_tids,
            executors: Vec::new(),
            tasks: Vec::new(),
            cfg,
        };
        // One system thread per core, with staggered first wakes, models
        // device background activity (IRQ/kworker style). It is pinned by
        // `CoreSlot::pulse_tid` and never enters a ready queue.
        for core in 0..world.cfg.cores {
            let tid = world.threads.len();
            let mut t = SimThread::new(
                ThreadId(tid),
                format!("kworker/{core}"),
                ThreadKind::System,
                PRIO_SYSTEM,
                WorkSource::Pulse,
            );
            t.state = ThreadState::Blocked;
            world.threads.push(t);
            world.cores[core].pulse_tid = tid;
            let offset = world.rng.uniform_u64(0, world.cfg.system_period_ns.max(1));
            world.cores[core].pulse_due = world.stamp(SimTime(offset));
        }
        // Then each train gets its own stream. These are the last pulse
        // draws on the world's stream: no app draw moves a pulse, and no
        // pulse moves an app draw.
        for core in 0..world.cfg.cores {
            world.cores[core].pulse_rng = SplitMix64::new(world.rng.next_u64());
        }
        world
    }

    /// Stamps an event due at `at` (never in the past) with the next
    /// sequence number.
    fn stamp(&mut self, at: SimTime) -> Due {
        self.seq += 1;
        Due {
            at: at.max(self.now),
            seq: self.seq,
        }
    }

    fn push_ev(&mut self, at: SimTime, ev: Ev) {
        let due = self.stamp(at);
        self.queue.push(QEntry { due, ev });
    }

    fn app_quiet(&self) -> bool {
        if self.pending_arrivals > 0 || self.pending_probe_timers > 0 {
            return false;
        }
        if !self.actions.is_empty()
            || !self.main_q.is_empty()
            || !self.render_q.is_empty()
            || !self.worker_q.is_empty()
            || self.executors.iter().any(|e| !e.queue.is_empty())
        {
            return false;
        }
        self.threads
            .iter()
            .filter(|t| t.is_app())
            .all(|t| t.exec.is_none() && t.state == ThreadState::Waiting)
    }

    /// Resolves the worker-side thread currently responsible for `task`
    /// not being done: the thread running it, or — when the task is
    /// still queued — the thread running its executor's head-of-line
    /// blocker (the in-flight task with the smallest id on that
    /// executor). On a serial executor that head is the convoy front,
    /// so one hop covers the transitive queue walk.
    fn blocking_thread_of(&self, task: u64) -> Option<usize> {
        let t = &self.tasks[task as usize];
        match t.status {
            TaskStatus::Running { tid } => Some(tid.0),
            TaskStatus::Done => None,
            TaskStatus::Queued => self.executors[t.executor]
                .thread_tids
                .iter()
                .copied()
                .filter_map(|w| match self.threads[w].exec.as_ref().map(|e| &e.item) {
                    Some(&WorkItem::ExecutorTask { task: running }) => Some((running, w)),
                    _ => None,
                })
                .min_by_key(|&(running, _)| running)
                .map(|(_, w)| w),
        }
    }

    // ---- scheduling primitives ------------------------------------------

    fn prio(&self, tid: usize) -> u8 {
        self.threads[tid].priority
    }

    fn make_ready(&mut self, tid: usize) {
        debug_assert!(!matches!(
            self.threads[tid].state,
            ThreadState::Running { .. }
        ));
        self.threads[tid].state = ThreadState::Ready;
        let p = self.prio(tid) as usize;
        self.ready[p].push_back(tid);
    }

    /// Accrues CPU time of the thread running on `core` up to `self.now`.
    fn accrue_running(&mut self, core: usize) {
        let Some(tid) = self.cores[core].running else {
            return;
        };
        // A pulse booked its whole burst at wake; there is nothing
        // incremental to account (and no exec).
        if tid == self.cores[core].pulse_tid {
            return;
        }
        let elapsed = self.now - self.cores[core].accrue_from;
        self.cores[core].accrue_from = self.now;
        if elapsed == 0 {
            return;
        }
        let SimThread { exec, counters, .. } = &mut self.threads[tid];
        let exec = exec.as_mut().expect("running thread has no exec");
        match exec.steps.front_mut() {
            Some(Step::Cpu { ns, profile }) => {
                *ns = ns.saturating_sub(elapsed);
                profile.accrue(counters, elapsed, &mut self.rng);
            }
            other => panic!("running thread front step is {other:?}, not Cpu"),
        }
    }

    fn accrue_all_running(&mut self) {
        for core in 0..self.cores.len() {
            self.accrue_running(core);
        }
    }

    /// Takes the thread off its core (if running), optionally counting a
    /// context switch. The caller sets the new state.
    fn off_cpu(&mut self, tid: usize, count_cs: bool) {
        if let ThreadState::Running { core } = self.threads[tid].state {
            self.accrue_running(core);
            self.cores[core].running = None;
            self.cores[core].slice_due = None;
            self.threads[tid].last_core = Some(core);
        }
        if count_cs {
            self.threads[tid]
                .counters
                .add(HwEvent::ContextSwitches, 1.0);
        }
    }

    fn find_free_core(&self) -> Option<usize> {
        (0..self.cores.len()).find(|&c| self.cores[c].running.is_none())
    }

    fn find_victim_core(&self, tid: usize) -> Option<usize> {
        let p = self.prio(tid);
        (0..self.cores.len())
            .filter_map(|c| self.cores[c].running.map(|v| (c, self.prio(v))))
            .filter(|&(_, vp)| vp < p)
            .min_by_key(|&(_, vp)| vp)
            .map(|(c, _)| c)
    }

    fn preempt(&mut self, core: usize) {
        let victim = self.cores[core].running.expect("preempting an empty core");
        self.off_cpu(victim, true);
        self.threads[victim].state = ThreadState::Ready;
        let p = self.prio(victim) as usize;
        self.ready[p].push_back(victim);
    }

    fn start_run(&mut self, tid: usize, core: usize) {
        debug_assert!(self.cores[core].running.is_none());
        let th = &mut self.threads[tid];
        if let Some(last) = th.last_core {
            if last != core {
                th.counters.add(HwEvent::CpuMigrations, 1.0);
            }
        }
        th.state = ThreadState::Running { core };
        th.last_core = Some(core);
        let remaining = match th.exec.as_ref().and_then(|e| e.steps.front()) {
            Some(Step::Cpu { ns, .. }) => *ns,
            other => panic!("scheduling thread whose front step is {other:?}"),
        };
        let slice_end = self.now + self.cfg.timeslice_ns;
        let due = self.stamp((self.now + remaining).min(slice_end));
        let slot = &mut self.cores[core];
        slot.running = Some(tid);
        slot.slice_end = slice_end;
        slot.accrue_from = self.now;
        slot.slice_due = Some(due);
    }

    fn schedule(&mut self) {
        loop {
            let mut placed = false;
            'prio: for p in (0..NUM_PRIOS).rev() {
                for k in 0..self.ready[p].len() {
                    let tid = self.ready[p][k];
                    if let Some(core) = self.find_free_core() {
                        self.ready[p].remove(k);
                        self.start_run(tid, core);
                        placed = true;
                        break 'prio;
                    }
                    if let Some(core) = self.find_victim_core(tid) {
                        self.ready[p].remove(k);
                        self.preempt(core);
                        self.start_run(tid, core);
                        placed = true;
                        break 'prio;
                    }
                }
            }
            if !placed {
                return;
            }
        }
    }

    /// Returns whether a thread with priority >= `p` is ready (used to
    /// decide if an expired slice forces a requeue). No ready thread is
    /// pinned — pulses never queue — so any of them could take the core.
    fn contention_for(&self, p: u8) -> bool {
        (p as usize..NUM_PRIOS).any(|q| !self.ready[q].is_empty())
    }

    // ---- work-item execution --------------------------------------------

    fn block_thread(&mut self, tid: usize, ns: u64) {
        let was_running = matches!(self.threads[tid].state, ThreadState::Running { .. });
        self.off_cpu(tid, true);
        if !was_running {
            // The thread blocked without holding a core (e.g. first step
            // of a message is I/O); it still context-switched once.
            debug_assert!(!matches!(
                self.threads[tid].state,
                ThreadState::Running { .. }
            ));
        }
        self.threads[tid].state = ThreadState::Blocked;
        self.push_ev(self.now + ns, Ev::Wake { tid });
    }

    fn go_idle(&mut self, tid: usize) {
        let was_running = matches!(self.threads[tid].state, ThreadState::Running { .. });
        self.off_cpu(tid, was_running);
        self.threads[tid].state = ThreadState::Waiting;
    }

    /// Wakes an idle queue-fed thread so it notices newly posted work.
    fn nudge(&mut self, tid: usize) {
        if self.threads[tid].state == ThreadState::Waiting && self.threads[tid].exec.is_none() {
            self.advance_thread(tid);
        }
    }

    fn begin_message(&mut self, tid: usize, msg: Message) {
        // A dispatch for a newer action force-ends any earlier action that
        // already finished its main-thread work ("a new action is
        // detected").
        while let Some(front) = self.actions.front() {
            if front.exec_id == msg.info.exec_id {
                break;
            }
            debug_assert!(
                front.finished_main.is_some(),
                "messages of action {:?} dispatched before {:?} finished",
                msg.info.exec_id,
                front.exec_id
            );
            self.end_front_action();
        }
        let act = self
            .actions
            .front_mut()
            .expect("message without active action");
        if act.began.is_none() {
            act.began = Some(self.now);
            if self.notices_enabled {
                self.notices.push(Notice::ActionBegin(ActionInfo {
                    exec_id: act.exec_id,
                    uid: act.uid,
                    name: act.name,
                    num_events: act.num_events,
                }));
            }
        }
        if self.notices_enabled {
            self.notices.push(Notice::DispatchBegin(msg.info));
        }
        self.threads[tid].exec = Some(ExecState::new(
            msg.steps,
            WorkItem::Message(msg.info),
            self.now,
        ));
    }

    fn end_front_action(&mut self) {
        let act = self.actions.pop_front().expect("no action to end");
        let record = ActionRecord {
            exec_id: act.exec_id,
            uid: act.uid,
            name: act.name,
            posted: act.posted,
            began: act.began.unwrap_or(act.posted),
            ended: self.now,
            event_responses: act.responses,
        };
        // The clone is paid only when a probe will consume the notice.
        if self.notices_enabled {
            self.notices.push(Notice::ActionEnd(record.clone()));
        }
        self.records.push(record);
    }

    fn render_idle(&self) -> bool {
        self.render_q.is_empty() && self.threads[self.render_tid].exec.is_none()
    }

    fn main_idle(&self) -> bool {
        self.main_q.is_empty() && self.threads[self.main_tid].exec.is_none()
    }

    fn check_quiesce(&mut self) {
        while let Some(front) = self.actions.front() {
            if front.finished_main.is_some() && self.render_idle() && self.main_idle() {
                self.end_front_action();
            } else {
                return;
            }
        }
    }

    /// Finishes the thread's current item (bookkeeping + notices) and
    /// clears `exec`.
    fn complete_item(&mut self, tid: usize) {
        let mut exec = self.threads[tid].exec.take().expect("no item to complete");
        // Return the (now empty) step buffer to the recycling pool; the
        // pool is bounded so long runs cannot hoard memory.
        if exec.steps.capacity() > 0 && self.spare_steps.len() < 16 {
            exec.steps.clear();
            self.spare_steps.push(std::mem::take(&mut exec.steps));
        }
        match exec.item {
            WorkItem::Message(info) => {
                let response = self.now - exec.began;
                let act = self
                    .actions
                    .front_mut()
                    .expect("message completion without action");
                debug_assert_eq!(act.exec_id, info.exec_id);
                act.responses.push(response);
                act.events_done += 1;
                if act.events_done == act.num_events {
                    act.finished_main = Some(self.now);
                }
                if self.notices_enabled {
                    self.notices.push(Notice::DispatchEnd(info, response));
                }
            }
            WorkItem::ExecutorTask { task } => {
                let t = &mut self.tasks[task as usize];
                t.status = TaskStatus::Done;
                t.finished = Some(self.now);
                let waiters = std::mem::take(&mut t.waiters);
                for w in waiters {
                    self.push_ev(self.now, Ev::Wake { tid: w });
                }
            }
            WorkItem::RenderFrame | WorkItem::WorkerTask => {}
        }
    }

    /// Pulls the thread's next work item from its source. Returns `true`
    /// if an item was assigned (so stepping can continue) or `false`
    /// after parking the thread.
    fn pull_next_item(&mut self, tid: usize) -> bool {
        enum Src {
            Main,
            Render,
            Worker,
            Executor(usize),
        }
        let source = match &self.threads[tid].source {
            WorkSource::MainLooper => Src::Main,
            WorkSource::RenderQueue => Src::Render,
            WorkSource::WorkerQueue => Src::Worker,
            WorkSource::ExecutorQueue { executor } => Src::Executor(*executor),
            WorkSource::Pulse => {
                unreachable!("pulse threads run on the pulse path, not from a queue")
            }
        };
        match source {
            Src::Main => {
                if let Some(msg) = self.main_q.pop_front() {
                    self.begin_message(tid, msg);
                    true
                } else {
                    self.go_idle(tid);
                    self.check_quiesce();
                    false
                }
            }
            Src::Render => {
                if let Some(frame_ns) = self.render_q.pop_front() {
                    let mut steps = self.spare_steps.pop().unwrap_or_default();
                    steps.push_back(Step::Cpu {
                        ns: frame_ns,
                        profile: MemProfile::render(),
                    });
                    self.threads[tid].exec = Some(ExecState::from_deque(
                        steps,
                        WorkItem::RenderFrame,
                        self.now,
                    ));
                    true
                } else {
                    self.go_idle(tid);
                    self.check_quiesce();
                    false
                }
            }
            Src::Worker => {
                if let Some(steps) = self.worker_q.pop_front() {
                    self.threads[tid].exec =
                        Some(ExecState::new(steps, WorkItem::WorkerTask, self.now));
                    true
                } else {
                    self.go_idle(tid);
                    false
                }
            }
            Src::Executor(ex) => {
                if let Some(task) = self.executors[ex].queue.pop_front() {
                    let t = &mut self.tasks[task as usize];
                    t.status = TaskStatus::Running { tid: ThreadId(tid) };
                    t.started = Some(self.now);
                    let steps = t.steps.take().expect("task body already taken");
                    self.threads[tid].exec = Some(ExecState::new(
                        steps,
                        WorkItem::ExecutorTask { task },
                        self.now,
                    ));
                    true
                } else {
                    self.go_idle(tid);
                    false
                }
            }
        }
    }

    /// Drives a thread through instantaneous steps until it needs the
    /// CPU, blocks, or parks.
    fn advance_thread(&mut self, tid: usize) {
        enum Ctl {
            Again,
            Pull,
            Complete,
            NeedCpu,
            Block(u64),
            Render {
                frames: u32,
                frame_ns: u64,
            },
            Worker(Vec<Step>),
            PostTask {
                executor: u32,
                token: u32,
                steps: Vec<Step>,
            },
            // Left at the step-queue front so the join is re-examined
            // when the task's completion event wakes this thread.
            Join(u32),
        }
        loop {
            // Peek at the front step and only dequeue it once its fate is
            // known: the hot Cpu path never moves the (large) `Step` value
            // in and out of the deque.
            let ctl = {
                let th = &mut self.threads[tid];
                match th.exec.as_mut() {
                    None => Ctl::Pull,
                    Some(exec) => match exec.steps.front_mut() {
                        None => Ctl::Complete,
                        Some(&mut Step::Cpu { ns, .. }) => {
                            if ns == 0 {
                                exec.steps.pop_front();
                                Ctl::Again
                            } else {
                                Ctl::NeedCpu
                            }
                        }
                        Some(&mut Step::Push(f)) => {
                            exec.steps.pop_front();
                            exec.stack.push(f);
                            Ctl::Again
                        }
                        Some(&mut Step::Pop) => {
                            exec.steps.pop_front();
                            exec.stack.pop();
                            Ctl::Again
                        }
                        Some(&mut Step::Io { ns }) => {
                            exec.steps.pop_front();
                            Ctl::Block(ns)
                        }
                        Some(&mut Step::NetIo { ns, bytes }) => {
                            exec.steps.pop_front();
                            th.net_bytes += bytes;
                            Ctl::Block(ns)
                        }
                        Some(&mut Step::PostRender { frames, frame_ns }) => {
                            exec.steps.pop_front();
                            Ctl::Render { frames, frame_ns }
                        }
                        Some(Step::PostWorker(_)) => match exec.steps.pop_front() {
                            Some(Step::PostWorker(steps)) => Ctl::Worker(steps),
                            _ => unreachable!("front was PostWorker"),
                        },
                        Some(Step::PostTask { .. }) => match exec.steps.pop_front() {
                            Some(Step::PostTask {
                                executor,
                                token,
                                steps,
                            }) => Ctl::PostTask {
                                executor,
                                token,
                                steps,
                            },
                            _ => unreachable!("front was PostTask"),
                        },
                        Some(&mut Step::JoinTask { token }) => Ctl::Join(token),
                    },
                }
            };
            match ctl {
                Ctl::Again => {}
                Ctl::Pull => {
                    if !self.pull_next_item(tid) {
                        return;
                    }
                }
                Ctl::Complete => self.complete_item(tid),
                Ctl::NeedCpu => {
                    if !matches!(self.threads[tid].state, ThreadState::Running { .. })
                        && self.threads[tid].state != ThreadState::Ready
                    {
                        self.make_ready(tid);
                    }
                    return;
                }
                Ctl::Block(ns) => {
                    self.block_thread(tid, ns);
                    return;
                }
                Ctl::Render { frames, frame_ns } => {
                    for _ in 0..frames {
                        self.render_q.push_back(frame_ns);
                    }
                    let render = self.render_tid;
                    self.nudge(render);
                }
                Ctl::Worker(steps) => {
                    self.worker_q.push_back(steps);
                    let idle = (0..self.worker_tids.len())
                        .map(|i| self.worker_tids[i])
                        .find(|&w| self.threads[w].state == ThreadState::Waiting);
                    if let Some(w) = idle {
                        self.nudge(w);
                    }
                }
                Ctl::PostTask {
                    executor,
                    token,
                    steps,
                } => {
                    let ex = executor as usize;
                    let task = self.tasks.len() as u64;
                    self.tasks.push(TaskState {
                        executor: ex,
                        status: TaskStatus::Queued,
                        steps: Some(steps),
                        posted: self.now,
                        started: None,
                        finished: None,
                        waiters: Vec::new(),
                    });
                    self.threads[tid]
                        .exec
                        .as_mut()
                        .expect("PostTask outside a work item")
                        .handles
                        .push((token, task));
                    self.executors[ex].queue.push_back(task);
                    let idle = self.executors[ex]
                        .thread_tids
                        .iter()
                        .copied()
                        .find(|&w| self.threads[w].state == ThreadState::Waiting);
                    if let Some(w) = idle {
                        self.nudge(w);
                    }
                }
                Ctl::Join(token) => {
                    let task = self.threads[tid]
                        .exec
                        .as_ref()
                        .expect("JoinTask outside a work item")
                        .handles
                        .iter()
                        .find(|&&(t, _)| t == token)
                        .map(|&(_, id)| id)
                        .expect("JoinTask token has no matching PostTask");
                    if self.tasks[task as usize].status == TaskStatus::Done {
                        // The future already resolved: the join is free.
                        let exec = self.threads[tid].exec.as_mut().expect("checked above");
                        exec.steps.pop_front();
                    } else {
                        // Wait edge: block with no timed wake; the task's
                        // completion event wakes us and re-runs the join.
                        self.tasks[task as usize].waiters.push(tid);
                        self.off_cpu(tid, true);
                        self.threads[tid].state = ThreadState::Blocked;
                        return;
                    }
                }
            }
        }
    }

    // ---- event handlers --------------------------------------------------

    /// The least `(at, seq)` among the staged-arrival head, the heap top
    /// and every core's two slots: the event one shared queue would pop.
    fn next_event(&self) -> Option<(Due, Source)> {
        let mut next = self
            .arrivals
            .front()
            .map(|&(due, _)| (due, Source::Arrival));
        let mut offer = |due: Due, source: Source| {
            if next.is_none_or(|(least, _)| due < least) {
                next = Some((due, source));
            }
        };
        if let Some(top) = self.queue.peek() {
            offer(top.due, Source::Heap);
        }
        for (core, slot) in self.cores.iter().enumerate() {
            offer(slot.pulse_due, Source::Pulse(core));
            if let Some(due) = slot.slice_due {
                offer(due, Source::Slice(core));
            }
        }
        next
    }

    /// Fires the event `next_event` named, with the clock already at its
    /// time.
    fn fire(&mut self, source: Source) {
        match source {
            Source::Arrival => {
                let (_, req) = self.arrivals.pop_front().expect("an arrival is due");
                self.handle_arrive(req);
            }
            Source::Heap => {
                let entry = self.queue.pop().expect("a heap entry is due");
                self.handle(entry.ev);
            }
            Source::Pulse(core) => self.handle_pulse(core),
            Source::Slice(core) => {
                self.cores[core].slice_due = None;
                self.handle_slice(core);
            }
        }
    }

    /// Whether the run is in an idle gap: no wake or timer is pending and
    /// no app thread runs or is ready, so only pulses can fire before the
    /// next staged arrival (see `idle_gap`).
    fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.cores.iter().all(|slot| slot.slice_due.is_none())
            && self.ready.iter().all(VecDeque::is_empty)
    }

    /// The app thread running on `core` reached its segment-or-slice
    /// boundary (`fire` has already cleared `slice_due`).
    fn handle_slice(&mut self, core: usize) {
        let tid = self.cores[core]
            .running
            .expect("slice boundary without thread");
        self.accrue_running(core);
        let finished = matches!(
            self.threads[tid]
                .exec
                .as_ref()
                .and_then(|e| e.steps.front()),
            Some(Step::Cpu { ns: 0, .. })
        );
        if finished {
            self.advance_thread(tid);
        }
        if let ThreadState::Running { core: c } = self.threads[tid].state {
            debug_assert_eq!(c, core);
            let p = self.prio(tid);
            let remaining = match self.threads[tid]
                .exec
                .as_ref()
                .and_then(|e| e.steps.front())
            {
                Some(Step::Cpu { ns, .. }) => *ns,
                other => panic!("running thread front step is {other:?}"),
            };
            if self.now >= self.cores[core].slice_end && self.contention_for(p) {
                self.off_cpu(tid, true);
                self.threads[tid].state = ThreadState::Ready;
                self.ready[p as usize].push_back(tid);
                self.schedule();
            } else {
                if self.now >= self.cores[core].slice_end {
                    self.cores[core].slice_end = self.now + self.cfg.timeslice_ns;
                }
                let boundary = (self.now + remaining).min(self.cores[core].slice_end);
                self.cores[core].slice_due = Some(self.stamp(boundary));
            }
        } else {
            self.schedule();
        }
    }

    /// The kworker pinned to `core` reaches its pending event: its burst
    /// ends if it is running, else it wakes and evicts whatever runs
    /// there.
    fn handle_pulse(&mut self, core: usize) {
        if self.cores[core].in_burst() {
            self.pulse_end(core);
            // Freeing a core only matters if some thread is waiting for one.
            if self.ready.iter().any(|q| !q.is_empty()) {
                self.schedule();
            }
        } else {
            let evict = self.cores[core].running.is_some();
            if evict {
                self.preempt(core);
            }
            self.pulse_wake(core);
            if evict {
                // The evicted thread may be able to migrate to a free core.
                self.schedule();
            }
        }
    }

    /// Starts the burst of the pulse pinned to `core` and stamps its end.
    /// A pulse thread is pinned at the highest priority, its burst
    /// (~350 µs) is shorter than a slice (10 ms), and there is one per
    /// core, so nothing can preempt it: the whole burst is decided here.
    /// One draw from the core's own stream funds the burst length and the
    /// next wake period. The burst books only kernel events — task-clock
    /// and cpu-clock now, the context switch at its end — since no probe
    /// reads a system thread's PMU events. The core must be free.
    fn pulse_wake(&mut self, core: usize) {
        let slot = &mut self.cores[core];
        let (burst, period) = self.pulse_law.cycle(slot.pulse_rng.next_u64());
        slot.running = Some(slot.pulse_tid);
        slot.pulse_period = period;
        let th = &mut self.threads[slot.pulse_tid];
        th.state = ThreadState::Running { core };
        th.counters.add(HwEvent::TaskClock, burst as f64);
        th.counters.add(HwEvent::CpuClock, burst as f64);
        self.cores[core].pulse_due = self.stamp(self.now + burst);
    }

    /// Ends the burst on `core`: frees the core, counts the pulse's
    /// context switch, and stamps the wake drawn at burst start.
    fn pulse_end(&mut self, core: usize) {
        let slot = &mut self.cores[core];
        let tid = slot.pulse_tid;
        debug_assert_eq!(slot.running, Some(tid));
        slot.running = None;
        let period = slot.pulse_period;
        let th = &mut self.threads[tid];
        th.counters.add(HwEvent::ContextSwitches, 1.0);
        th.state = ThreadState::Blocked;
        self.cores[core].pulse_due = self.stamp(self.now + period);
    }

    /// Advances an idle gap. With no wake or timer on the heap, no app
    /// thread running and nothing ready, only pulses can fire before the
    /// next staged arrival. A pulse train draws from its own stream and
    /// touches only its own core, so each core advances alone, in a tight
    /// loop over the same cycle law as `handle_pulse`, up to the next
    /// arrival or the horizon. The loop keeps no stamps; the kworker's
    /// clocks and context switches are summed as integers and booked once
    /// (exact: integer-valued f64 sums below 2^53). Each core that moved
    /// then gets its `pulse_due` re-stamped in the order one event at a
    /// time would have stamped it (see `rewind`), and the run loop takes
    /// the arrival, or truncates at the horizon, exactly as it would
    /// after firing the gap's pulses one at a time.
    fn idle_gap(&mut self) {
        let horizon = self.cfg.max_sim_ns;
        let gap_end = match self.arrivals.front() {
            Some(&(due, _)) if due.at.as_ns() <= horizon => due,
            _ => Due {
                at: SimTime(horizon),
                seq: u64::MAX,
            },
        };
        // An event stamped during the run sorts after every staged
        // arrival at its instant, so past a core's pending event the gap
        // ends at a plain time.
        let end = if gap_end.seq == u64::MAX {
            horizon.saturating_add(1)
        } else {
            gap_end.at.as_ns()
        };
        let law = self.pulse_law;
        // `(core, events processed)` of each train that moved.
        let mut moved = Vec::new();
        for (core, slot) in self.cores.iter_mut().enumerate() {
            if slot.pulse_due >= gap_end {
                continue;
            }
            let mut in_burst = slot.in_burst();
            debug_assert!(
                in_burst || slot.running.is_none(),
                "core {core} runs app work in an idle gap"
            );
            let (mut rng, mut period) = (slot.pulse_rng, slot.pulse_period);
            let mut t = slot.pulse_due.at.as_ns();
            let (mut steps, mut busy, mut switches) = (0, 0, 0);
            // The pending event is due; every later event is due before `end`.
            let last = loop {
                let due = t;
                steps += 1;
                if in_burst {
                    switches += 1;
                    t += period;
                } else {
                    let (burst, next) = law.cycle(rng.next_u64());
                    busy += burst;
                    period = next;
                    t += burst;
                }
                in_burst = !in_burst;
                if t >= end {
                    break due;
                }
            };
            slot.pulse_rng = rng;
            slot.pulse_period = period;
            slot.running = in_burst.then_some(slot.pulse_tid);
            slot.pulse_due.at = SimTime(t);
            let th = &mut self.threads[slot.pulse_tid];
            th.state = if in_burst {
                ThreadState::Running { core }
            } else {
                ThreadState::Blocked
            };
            th.counters.add(HwEvent::TaskClock, busy as f64);
            th.counters.add(HwEvent::CpuClock, busy as f64);
            th.counters.add(HwEvent::ContextSwitches, switches as f64);
            self.now = self.now.max(SimTime(last));
            moved.push((core, steps));
        }
        moved.sort_unstable_by(|&(a, a_steps), &(b, b_steps)| {
            self.rewind(a, a_steps).cmp(self.rewind(b, b_steps))
        });
        for (core, _) in moved {
            self.seq += 1;
            self.cores[core].pulse_due.seq = self.seq;
        }
    }

    /// The `(at, seq)` keys of the `steps` events the pulse train of
    /// `core` processed in this gap, newest first, recomputed backwards
    /// from where it stopped. The oldest kept its pre-gap `seq` (still in
    /// `pulse_due.seq`); the others were stamped in the gap, which one
    /// event at a time does in the order it fires the events before them,
    /// so they carry `u64::MAX`: compare the next key. Comparing two
    /// trains' keys newest first therefore orders their survivors as
    /// firing one event at a time stamps them, ties included.
    fn rewind(&self, core: usize, steps: u64) -> impl Iterator<Item = (u64, u64)> {
        let slot = &self.cores[core];
        let law = self.pulse_law;
        let mut rng = slot.pulse_rng;
        let mut in_burst = slot.in_burst();
        let (mut at, seq) = (slot.pulse_due.at.as_ns(), slot.pulse_due.seq);
        (0..steps).rev().map(move |older| {
            let (burst, period) = law.cycle(rng.last());
            if in_burst {
                // Back across the wake that made the most recent draw.
                at -= burst;
                rng.unwind();
            } else {
                at -= period;
            }
            in_burst = !in_burst;
            (at, if older == 0 { seq } else { u64::MAX })
        })
    }

    fn handle_arrive(&mut self, req: ArrivedRequest) {
        self.pending_arrivals -= 1;
        self.next_exec += 1;
        let exec_id = ExecId(self.next_exec);
        let num_events = req.events.len();
        self.actions.push_back(ActiveAction {
            exec_id,
            uid: req.uid,
            name: req.name,
            posted: self.now,
            began: None,
            responses: Vec::new(),
            num_events,
            events_done: 0,
            finished_main: None,
        });
        for (i, steps) in req.events.into_iter().enumerate() {
            self.main_q.push_back(Message {
                info: MessageInfo {
                    exec_id,
                    action_uid: req.uid,
                    action_name: req.name,
                    event_index: i,
                    num_events,
                },
                steps,
            });
        }
        if num_events == 0 {
            // Degenerate action: record it as instantly complete.
            let act = self.actions.back_mut().unwrap();
            act.began = Some(self.now);
            act.finished_main = Some(self.now);
            self.check_quiesce();
            return;
        }
        let main = self.main_tid;
        self.nudge(main);
        self.schedule();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Wake { tid } => {
                self.advance_thread(tid);
                self.schedule();
            }
            Ev::ProbeTimer { probe, token } => {
                self.pending_probe_timers -= 1;
                self.monitor.timer_fires += 1;
                self.notices.push(Notice::Timer { probe, token });
            }
        }
    }
}

/// Per-callback access handed to [`Probe`]s.
pub struct ProbeCtx<'a> {
    world: &'a mut World,
    probe_idx: usize,
}

impl ProbeCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The app's main thread.
    pub fn main_tid(&self) -> ThreadId {
        ThreadId(self.world.main_tid)
    }

    /// The app's render thread.
    pub fn render_tid(&self) -> ThreadId {
        ThreadId(self.world.render_tid)
    }

    /// The app's background worker threads.
    pub fn worker_tids(&self) -> Vec<ThreadId> {
        self.world
            .worker_tids
            .iter()
            .map(|&t| ThreadId(t))
            .collect()
    }

    /// Reads the ground-truth accumulated count of `event` on `tid`.
    ///
    /// Monitoring layers (e.g. the simpleperf analog in `hd-perfmon`)
    /// add read cost and multiplexing error on top of this.
    pub fn counter(&mut self, tid: ThreadId, event: HwEvent) -> f64 {
        self.world.accrue_all_running();
        self.world.threads[tid.0].counters.get(event)
    }

    /// Bytes `tid` has transferred over the network so far (the
    /// `/proc/uid_stat` analog used by the network-on-main extension).
    pub fn net_bytes(&self, tid: ThreadId) -> u64 {
        self.world.threads[tid.0].net_bytes
    }

    /// Snapshot of the main thread's current call stack.
    pub fn main_stack(&self) -> Vec<FrameId> {
        self.world.threads[self.world.main_tid].stack().to_vec()
    }

    /// Snapshot of the main thread's stack with causal extension: when
    /// main is blocked in a [`Step::JoinTask`] wait edge, the stack of
    /// the worker-side thread responsible for the joined task — the
    /// thread running it, or the head-of-line blocker on its executor —
    /// is appended, so trace analysis sees the culprit API as the leaf
    /// instead of the innocent join site. Identical to [`main_stack`]
    /// (`Self::main_stack`) whenever main is not join-blocked or no
    /// culprit thread is resolvable.
    pub fn main_stack_causal(&self) -> Vec<FrameId> {
        let w = &self.world;
        let th = &w.threads[w.main_tid];
        let mut stack = th.stack().to_vec();
        if th.state != ThreadState::Blocked {
            return stack;
        }
        let Some(exec) = th.exec.as_ref() else {
            return stack;
        };
        let Some(&Step::JoinTask { token }) = exec.steps.front() else {
            return stack;
        };
        let Some(&(_, task)) = exec.handles.iter().find(|&&(t, _)| t == token) else {
            return stack;
        };
        if let Some(culprit) = w.blocking_thread_of(task) {
            stack.extend_from_slice(w.threads[culprit].stack());
        }
        stack
    }

    /// Resolves a frame id.
    pub fn frame(&self, id: FrameId) -> &Frame {
        self.world.frames.get(id)
    }

    /// Resolves an interned action name (as carried by `MessageInfo`,
    /// `ActionInfo`, and `ActionRecord`).
    pub fn action_name(&self, id: NameId) -> &str {
        self.world.names.get(id)
    }

    /// Arms a one-shot timer for this probe at absolute time `at`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.world.pending_probe_timers += 1;
        let probe = self.probe_idx;
        self.world.push_ev(at, Ev::ProbeTimer { probe, token });
    }

    /// Charges monitoring CPU cost against the app.
    pub fn charge_cpu(&mut self, ns: u64) {
        self.world.monitor.cpu_ns += ns;
    }

    /// Charges monitoring memory traffic against the app.
    pub fn charge_mem(&mut self, bytes: u64) {
        self.world.monitor.mem_bytes += bytes;
    }

    /// Notes one performance-counter read (for overhead bookkeeping).
    pub fn note_counter_read(&mut self) {
        self.world.monitor.counter_reads += 1;
    }

    /// Notes one collected stack sample (for overhead bookkeeping).
    pub fn note_stack_sample(&mut self) {
        self.world.monitor.stack_samples += 1;
    }

    /// Deterministic per-run jitter for monitoring-cost models.
    pub fn jitter(&mut self, j: f64) -> f64 {
        self.world.rng.jitter(j)
    }
}

/// The simulator: a [`World`] plus installed probes.
pub struct Simulator {
    world: World,
    probes: Vec<Box<dyn Probe>>,
    ran: bool,
}

impl Simulator {
    /// Creates a simulator hosting one app process.
    ///
    /// `frames` is the interned frame table produced when the app model
    /// was compiled; probes resolve stack samples against it. Accepts
    /// either an owned table or a shared `Arc` handle (the compiled-app
    /// cache passes the same `Arc` to every device in a fleet).
    pub fn new(cfg: SimConfig, frames: impl Into<Arc<FrameTable>>) -> Simulator {
        Simulator {
            world: World::new(cfg, frames.into()),
            probes: Vec::new(),
            ran: false,
        }
    }

    /// Installs a probe; returns its index (timer callbacks are routed
    /// per probe). Installing any probe enables notice delivery, which
    /// the hot loop otherwise skips.
    pub fn add_probe(&mut self, probe: Box<dyn Probe>) -> usize {
        self.world.notices_enabled = true;
        self.probes.push(probe);
        self.probes.len() - 1
    }

    /// Adds a bounded executor (a serial executor when `width == 1`)
    /// backed by `width` dedicated threads, and returns the executor
    /// index referenced by [`Step::PostTask`]. Draws no RNG, so adding
    /// executors never perturbs the event schedule of apps that do not
    /// post to them.
    pub fn add_executor(&mut self, name: &str, width: usize) -> usize {
        debug_assert!(!self.ran, "add_executor after run");
        assert!(width >= 1, "an executor needs at least one thread");
        let idx = self.world.executors.len();
        let mut thread_tids = Vec::with_capacity(width);
        for i in 0..width {
            let tid = self.world.threads.len();
            thread_tids.push(tid);
            self.world.threads.push(SimThread::new(
                ThreadId(tid),
                format!("{name}-{}", i + 1),
                ThreadKind::Worker,
                PRIO_WORKER,
                WorkSource::ExecutorQueue { executor: idx },
            ));
        }
        self.world.executors.push(ExecutorState {
            queue: VecDeque::new(),
            thread_tids,
        });
        idx
    }

    /// Pre-sizes the event queue and record storage for a run that will
    /// schedule about `actions` user actions, so the hot loop never
    /// reallocates them mid-run.
    pub fn reserve_actions(&mut self, actions: usize) {
        self.world.arrivals.reserve(actions);
        self.world.queue.reserve(16);
        self.world.records.reserve(actions);
    }

    /// Schedules a user action to arrive at `at`.
    ///
    /// The action name is interned here, once; everything downstream
    /// (messages, notices, records) carries the 4-byte [`NameId`].
    pub fn schedule_action(&mut self, at: SimTime, req: ActionRequest) {
        debug_assert!(!self.ran, "schedule_action after run");
        let name = self.world.names.intern(&req.name);
        self.world.pending_arrivals += 1;
        // Arrivals take a sequence number from the same counter as every
        // other event so the (at, seq) total order is exactly what a
        // single shared queue would have produced.
        let due = self.world.stamp(at);
        self.world.arrivals.push_back((
            due,
            ArrivedRequest {
                uid: req.uid,
                name,
                events: req.events,
            },
        ));
    }

    /// Runs until all app work (and probe timers) drain, or the horizon
    /// is hit. A truncated run stops at the horizon: probes' `on_sim_end`
    /// and [`RunSummary::ended_at`] see `max_sim_ns`.
    pub fn run(&mut self) -> RunSummary {
        debug_assert!(!self.ran, "Simulator::run called twice");
        self.ran = true;
        let mut truncated = false;
        // Arrivals were staged in schedule order; establish (at, seq)
        // order once so the head is always the least staged arrival.
        self.world
            .arrivals
            .make_contiguous()
            .sort_unstable_by_key(|&(due, _)| due);
        loop {
            if self.world.app_quiet() {
                break;
            }
            if self.world.idle() {
                self.world.idle_gap();
            }
            let Some((due, source)) = self.world.next_event() else {
                break;
            };
            debug_assert!(due.at >= self.world.now, "time went backwards");
            if due.at.as_ns() > self.world.cfg.max_sim_ns {
                // Whatever lies past the horizon, the run ends on it.
                self.world.now = SimTime(self.world.cfg.max_sim_ns);
                truncated = true;
                break;
            }
            self.world.now = due.at;
            self.world.fire(source);
            if !self.world.notices.is_empty() {
                self.drain_notices();
            }
        }
        for i in 0..self.probes.len() {
            let mut ctx = ProbeCtx {
                world: &mut self.world,
                probe_idx: i,
            };
            self.probes[i].on_sim_end(&mut ctx);
        }
        RunSummary {
            ended_at: self.world.now,
            truncated,
            actions_completed: self.world.records.len(),
        }
    }

    fn drain_notices(&mut self) {
        while !self.world.notices.is_empty() {
            let batch: Vec<Notice> = std::mem::take(&mut self.world.notices);
            for notice in batch {
                match notice {
                    Notice::ActionBegin(info) => {
                        for i in 0..self.probes.len() {
                            let mut ctx = ProbeCtx {
                                world: &mut self.world,
                                probe_idx: i,
                            };
                            self.probes[i].on_action_begin(&mut ctx, &info);
                        }
                    }
                    Notice::DispatchBegin(info) => {
                        for i in 0..self.probes.len() {
                            let mut ctx = ProbeCtx {
                                world: &mut self.world,
                                probe_idx: i,
                            };
                            self.probes[i].on_dispatch_begin(&mut ctx, &info);
                        }
                    }
                    Notice::DispatchEnd(info, response) => {
                        for i in 0..self.probes.len() {
                            let mut ctx = ProbeCtx {
                                world: &mut self.world,
                                probe_idx: i,
                            };
                            self.probes[i].on_dispatch_end(&mut ctx, &info, response);
                        }
                    }
                    Notice::ActionEnd(record) => {
                        for i in 0..self.probes.len() {
                            let mut ctx = ProbeCtx {
                                world: &mut self.world,
                                probe_idx: i,
                            };
                            self.probes[i].on_action_end(&mut ctx, &record);
                        }
                    }
                    Notice::Timer { probe, token } => {
                        let mut ctx = ProbeCtx {
                            world: &mut self.world,
                            probe_idx: probe,
                        };
                        self.probes[probe].on_timer(&mut ctx, token);
                    }
                }
            }
        }
    }

    /// Completed action records, in completion order.
    pub fn records(&self) -> &[ActionRecord] {
        &self.world.records
    }

    /// Records of all executor tasks posted during the run, in posting
    /// order (a task's id is its index).
    pub fn task_records(&self) -> Vec<TaskRecord> {
        self.world
            .tasks
            .iter()
            .map(|t| TaskRecord {
                executor: t.executor,
                status: t.status,
                posted: t.posted,
                started: t.started,
                finished: t.finished,
            })
            .collect()
    }

    /// Accumulated monitoring cost of all probes.
    pub fn monitor_cost(&self) -> MonitorCost {
        self.world.monitor
    }

    /// The interned frame table.
    pub fn frame_table(&self) -> &FrameTable {
        self.world.frames.as_ref()
    }

    /// The interned action-name table (ids in schedule order).
    pub fn name_table(&self) -> &NameTable {
        &self.world.names
    }

    /// Resolves an interned action name.
    pub fn action_name(&self, id: NameId) -> &str {
        self.world.names.get(id)
    }

    /// Reads the final ground-truth count of `event` on `tid`. System
    /// threads count kernel clock and context-switch events only.
    pub fn thread_counter(&self, tid: ThreadId, event: HwEvent) -> f64 {
        self.world.threads[tid.0].counters.get(event)
    }

    /// The app's main thread id.
    pub fn main_tid(&self) -> ThreadId {
        ThreadId(self.world.main_tid)
    }

    /// The app's render thread id.
    pub fn render_tid(&self) -> ThreadId {
        ThreadId(self.world.render_tid)
    }

    /// Total CPU time consumed by app threads, in ns.
    pub fn app_cpu_ns(&self) -> u64 {
        self.world
            .threads
            .iter()
            .filter(|t| t.is_app())
            .map(|t| t.counters.get(HwEvent::TaskClock))
            .sum::<f64>() as u64
    }

    /// Total memory accesses issued by app threads (traffic proxy).
    pub fn app_mem_accesses(&self) -> f64 {
        self.world
            .threads
            .iter()
            .filter(|t| t.is_app())
            .map(|t| t.counters.get(HwEvent::RawMemAccess))
            .sum()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::looper::ActionUid;
    use crate::work::nominal_duration;

    fn ui_event(table: &mut FrameTable, cpu_ms: u64, frames: u32) -> Vec<Step> {
        let handler = table.intern_new("app.Main.onClick", "Main.java", 40);
        let api = table.intern_new("android.view.View.setText", "View.java", 10);
        vec![
            Step::Push(handler),
            Step::Push(api),
            Step::Cpu {
                ns: cpu_ms * MILLIS,
                profile: MemProfile::ui(),
            },
            Step::PostRender {
                frames,
                frame_ns: 4 * MILLIS,
            },
            Step::Pop,
            Step::Pop,
        ]
    }

    fn io_event(table: &mut FrameTable, io_ms: u64) -> Vec<Step> {
        let handler = table.intern_new("app.Main.onResume", "Main.java", 80);
        let api = table.intern_new("android.hardware.Camera.open", "Camera.java", 120);
        vec![
            Step::Push(handler),
            Step::Push(api),
            Step::Cpu {
                ns: MILLIS,
                profile: MemProfile::io_stub(),
            },
            Step::Io { ns: io_ms * MILLIS },
            Step::Pop,
            Step::Pop,
        ]
    }

    fn one_action_sim(events: Vec<Vec<Step>>, table: FrameTable) -> Simulator {
        let mut sim = Simulator::new(SimConfig::default(), table);
        sim.schedule_action(
            SimTime::from_ms(10),
            ActionRequest {
                uid: ActionUid(1),
                name: "tap".into(),
                events,
            },
        );
        sim
    }

    #[test]
    fn single_ui_action_completes_with_plausible_response() {
        let mut table = FrameTable::new();
        let ev = ui_event(&mut table, 30, 5);
        let (cpu, io) = nominal_duration(&ev);
        assert_eq!(cpu, 30 * MILLIS);
        assert_eq!(io, 0);
        let mut sim = one_action_sim(vec![ev], table);
        let summary = sim.run();
        assert!(!summary.truncated);
        assert_eq!(summary.actions_completed, 1);
        let rec = &sim.records()[0];
        // Response covers the CPU work plus some preemption dilation.
        let resp = rec.max_response_ns();
        assert!(resp >= 30 * MILLIS, "resp={resp}");
        assert!(resp < 90 * MILLIS, "resp={resp}");
        // The action ends only after the render thread drains its frames.
        assert!(rec.ended.as_ns() >= rec.began.as_ns() + resp);
    }

    #[test]
    fn io_block_counts_context_switch_and_extends_response() {
        let mut table = FrameTable::new();
        let ev = io_event(&mut table, 250);
        let mut sim = one_action_sim(vec![ev], table);
        sim.run();
        let rec = &sim.records()[0];
        assert!(rec.max_response_ns() >= 251 * MILLIS);
        let cs = sim.thread_counter(sim.main_tid(), HwEvent::ContextSwitches);
        assert!(cs >= 1.0, "main cs = {cs}");
        // Render thread did nothing.
        assert_eq!(
            sim.thread_counter(sim.render_tid(), HwEvent::TaskClock),
            0.0
        );
    }

    #[test]
    fn render_work_accrues_on_render_thread() {
        let mut table = FrameTable::new();
        let ev = ui_event(&mut table, 10, 20);
        let mut sim = one_action_sim(vec![ev], table);
        sim.run();
        let render_clock = sim.thread_counter(sim.render_tid(), HwEvent::TaskClock);
        assert!(
            (render_clock - (20.0 * 4.0 * MILLIS as f64)).abs() < 1e-6,
            "render task-clock = {render_clock}"
        );
        let main_clock = sim.thread_counter(sim.main_tid(), HwEvent::TaskClock);
        assert!(render_clock > main_clock);
    }

    #[test]
    fn heavy_main_work_accumulates_context_switches() {
        let mut table = FrameTable::new();
        let handler = table.intern_new("app.Main.compute", "Main.java", 5);
        let ev = vec![
            Step::Push(handler),
            Step::Cpu {
                ns: 400 * MILLIS,
                profile: MemProfile::compute(),
            },
            Step::Pop,
        ];
        let mut sim = one_action_sim(vec![ev], table);
        sim.run();
        let cs = sim.thread_counter(sim.main_tid(), HwEvent::ContextSwitches);
        // Pinned system threads preempt roughly every few ms of runtime.
        assert!(cs > 40.0, "main cs = {cs}");
    }

    #[test]
    fn responses_measured_per_event_from_dequeue() {
        let mut table = FrameTable::new();
        let e0 = ui_event(&mut table, 50, 2);
        let e1 = ui_event(&mut table, 5, 1);
        let mut sim = one_action_sim(vec![e0, e1], table);
        sim.run();
        let rec = &sim.records()[0];
        assert_eq!(rec.event_responses.len(), 2);
        // Event 1 waits for event 0 but its response starts at dequeue,
        // so it stays short.
        assert!(rec.event_responses[0] > rec.event_responses[1]);
        assert!(rec.event_responses[1] < 20 * MILLIS);
    }

    #[test]
    fn worker_offload_keeps_main_responsive() {
        let mut table = FrameTable::new();
        let handler = table.intern_new("app.Main.onResume", "Main.java", 80);
        let cam = table.intern_new("android.hardware.Camera.open", "Camera.java", 120);
        let ev = vec![
            Step::Push(handler),
            Step::PostWorker(vec![
                Step::Push(cam),
                Step::Io { ns: 250 * MILLIS },
                Step::Pop,
            ]),
            Step::Cpu {
                ns: 20 * MILLIS,
                profile: MemProfile::ui(),
            },
            Step::PostRender {
                frames: 4,
                frame_ns: 4 * MILLIS,
            },
            Step::Pop,
        ];
        let mut sim = one_action_sim(vec![ev], table);
        sim.run();
        let rec = &sim.records()[0];
        assert!(
            rec.max_response_ns() < 100 * MILLIS,
            "resp = {}",
            rec.max_response_ns()
        );
    }

    #[test]
    fn dispatch_probe_sees_begin_and_end() {
        #[derive(Default)]
        struct Recorder {
            begins: usize,
            ends: usize,
            last_response: u64,
            action_begins: usize,
            action_ends: usize,
        }
        // Shared handle so we can inspect after the run.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct P(Rc<RefCell<Recorder>>);
        impl Probe for P {
            fn on_action_begin(&mut self, _ctx: &mut ProbeCtx<'_>, _info: &ActionInfo) {
                self.0.borrow_mut().action_begins += 1;
            }
            fn on_dispatch_begin(&mut self, _ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
                self.0.borrow_mut().begins += 1;
            }
            fn on_dispatch_end(
                &mut self,
                _ctx: &mut ProbeCtx<'_>,
                _info: &MessageInfo,
                response_ns: u64,
            ) {
                let mut r = self.0.borrow_mut();
                r.ends += 1;
                r.last_response = response_ns;
            }
            fn on_action_end(&mut self, _ctx: &mut ProbeCtx<'_>, _record: &ActionRecord) {
                self.0.borrow_mut().action_ends += 1;
            }
        }
        let mut table = FrameTable::new();
        let ev0 = ui_event(&mut table, 10, 1);
        let ev1 = ui_event(&mut table, 10, 1);
        let shared = Rc::new(RefCell::new(Recorder::default()));
        let mut sim = one_action_sim(vec![ev0, ev1], table);
        sim.add_probe(Box::new(P(shared.clone())));
        sim.run();
        let r = shared.borrow();
        assert_eq!(r.begins, 2);
        assert_eq!(r.ends, 2);
        assert_eq!(r.action_begins, 1);
        assert_eq!(r.action_ends, 1);
        assert!(r.last_response >= 10 * MILLIS);
    }

    #[test]
    fn probe_timer_fires_and_reads_stack() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Sampler {
            fired: Rc<RefCell<Vec<usize>>>,
        }
        impl Probe for Sampler {
            fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
                let at = ctx.now() + 5 * MILLIS;
                ctx.set_timer(at, 7);
            }
            fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, token: u64) {
                assert_eq!(token, 7);
                self.fired.borrow_mut().push(ctx.main_stack().len());
            }
        }
        let mut table = FrameTable::new();
        let ev = ui_event(&mut table, 30, 1);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_probe(Box::new(Sampler {
            fired: fired.clone(),
        }));
        sim.run();
        let fired = fired.borrow();
        assert_eq!(fired.len(), 1);
        // Mid-dispatch the stack holds the handler and the API frame.
        assert_eq!(fired[0], 2);
    }

    #[test]
    fn runs_are_deterministic_for_same_seed() {
        let build = || {
            let mut table = FrameTable::new();
            let ev = io_event(&mut table, 100);
            let ev2 = ui_event(&mut table, 25, 8);
            let mut sim = Simulator::new(SimConfig::default(), table);
            sim.schedule_action(
                SimTime::from_ms(5),
                ActionRequest {
                    uid: ActionUid(1),
                    name: "a".into(),
                    events: vec![ev],
                },
            );
            sim.schedule_action(
                SimTime::from_ms(600),
                ActionRequest {
                    uid: ActionUid(2),
                    name: "b".into(),
                    events: vec![ev2],
                },
            );
            sim.run();
            (
                sim.records()
                    .iter()
                    .map(|r| r.max_response_ns())
                    .collect::<Vec<_>>(),
                sim.thread_counter(sim.main_tid(), HwEvent::Instructions),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn back_to_back_actions_force_end_previous() {
        let mut table = FrameTable::new();
        let ev0 = ui_event(&mut table, 20, 30);
        let ev1 = ui_event(&mut table, 5, 1);
        let mut sim = Simulator::new(SimConfig::default(), table);
        sim.schedule_action(
            SimTime::from_ms(1),
            ActionRequest {
                uid: ActionUid(1),
                name: "slow-render".into(),
                events: vec![ev0],
            },
        );
        // Arrives while the render thread is still chewing frames.
        sim.schedule_action(
            SimTime::from_ms(30),
            ActionRequest {
                uid: ActionUid(2),
                name: "next".into(),
                events: vec![ev1],
            },
        );
        let summary = sim.run();
        assert_eq!(summary.actions_completed, 2);
        let recs = sim.records();
        assert_eq!(recs[0].uid, ActionUid(1));
        assert_eq!(recs[1].uid, ActionUid(2));
        assert!(recs[0].ended <= recs[1].began + 1);
    }

    #[test]
    fn empty_action_is_recorded() {
        let table = FrameTable::new();
        let mut sim = one_action_sim(vec![], table);
        let summary = sim.run();
        assert_eq!(summary.actions_completed, 1);
        assert_eq!(sim.records()[0].max_response_ns(), 0);
    }

    #[test]
    fn system_threads_count_kernel_events_only() {
        let mut table = FrameTable::new();
        let ev = ui_event(&mut table, 30, 5);
        let mut sim = one_action_sim(vec![ev], table);
        sim.run();
        let threads = &sim.world.threads;
        let pulses: Vec<&SimThread> = threads
            .iter()
            .filter(|t| t.kind == ThreadKind::System)
            .collect();
        assert_eq!(pulses.len(), SimConfig::default().cores);
        for t in pulses {
            let clock = t.counters.get(HwEvent::TaskClock);
            assert!(clock > 0.0, "{} task-clock", t.name);
            assert_eq!(t.counters.get(HwEvent::CpuClock), clock, "{}", t.name);
            assert!(t.counters.get(HwEvent::ContextSwitches) > 0.0, "{}", t.name);
            for event in HwEvent::ALL {
                if !matches!(
                    event,
                    HwEvent::TaskClock | HwEvent::CpuClock | HwEvent::ContextSwitches
                ) {
                    assert_eq!(t.counters.get(event), 0.0, "{} {event:?}", t.name);
                }
            }
        }
        // The app threads the S-Checker reads still carry PMU events.
        for tid in [sim.main_tid(), sim.render_tid()] {
            let bank = &threads[tid.0].counters;
            assert!(bank.get(HwEvent::Instructions) > 0.0, "{tid:?}");
            assert!(bank.get(HwEvent::CacheMisses) > 0.0, "{tid:?}");
            assert!(bank.get(HwEvent::PageFaults) > 0.0, "{tid:?}");
        }
    }

    /// Stages an empty action at `at`, as `schedule_action` would.
    fn stage_arrival(world: &mut World, at: SimTime) -> Due {
        let due = world.stamp(at);
        let name = world.names.intern("gap");
        let (uid, events) = (ActionUid(0), Vec::new());
        world
            .arrivals
            .push_back((due, ArrivedRequest { uid, name, events }));
        due
    }

    /// What the run loop does without `idle_gap`: fires the least event,
    /// one at a time, while it is before `end` (in a gap every such event
    /// is a core's `pulse_due`).
    fn one_at_a_time(world: &mut World, end: Due) {
        while let Some((due, source)) = world.next_event() {
            if due >= end {
                break;
            }
            assert!(matches!(source, Source::Pulse(_)), "{source:?} in a gap");
            world.now = due.at;
            world.fire(source);
        }
    }

    /// Everything a gap can move: clock, core slots, kworker banks and
    /// states, and the world stream's next draw. Sequence numbers differ
    /// between the paths, their order may not: each `pulse_due.seq` is
    /// replaced by its rank in `(at, seq)` order.
    fn gap_state(world: &mut World) -> String {
        assert!(world.queue.is_empty(), "a gap leaves the heap empty");
        let mut cores = world.cores.clone();
        let mut order: Vec<usize> = (0..cores.len()).collect();
        order.sort_by_key(|&core| cores[core].pulse_due);
        for (rank, core) in order.into_iter().enumerate() {
            cores[core].pulse_due.seq = rank as u64;
        }
        let mut out = format!("{:?} {:?}", world.now, cores);
        for slot in &world.cores {
            let th = &world.threads[slot.pulse_tid];
            let bank = &th.counters;
            out += &format!(
                " {:?} {} {} {}",
                th.state,
                bank.get(HwEvent::TaskClock),
                bank.get(HwEvent::CpuClock),
                bank.get(HwEvent::ContextSwitches)
            );
        }
        out += &format!(" rng {}", world.rng.next_u64());
        out
    }

    #[test]
    fn idle_gap_matches_the_heap_path() {
        let world = |cores, seed, tied: bool, horizon| {
            let cfg = SimConfig {
                cores,
                seed,
                max_sim_ns: horizon,
                ..SimConfig::default()
            };
            let mut w = World::new(cfg, Arc::new(FrameTable::new()));
            if tied {
                // Every core on core 0's stream and first wake: each event
                // ties on every core, and only the pre-run sequence numbers,
                // reversed here against core order, order them.
                let rng = w.cores[0].pulse_rng;
                let first = w.cores.iter().map(|c| c.pulse_due.at).min();
                for (core, slot) in w.cores.iter_mut().enumerate() {
                    slot.pulse_due = Due {
                        at: first.expect("cores"),
                        seq: (cores - core) as u64,
                    };
                    slot.pulse_rng = rng;
                }
            }
            w
        };
        for cores in [2, 4, 8] {
            for seed in [1, 7] {
                for tied in [false, true] {
                    // Gap ends on the first wake (its pre-run seq sorts
                    // before an arrival's), on later pulses (theirs sort
                    // after), between pulses, and far out.
                    let mut probe = world(cores, seed, tied, u64::MAX);
                    let mut times = Vec::new();
                    while times.len() < 2_000 {
                        let (due, source) = probe.next_event().expect("pulses");
                        probe.now = due.at;
                        probe.fire(source);
                        times.push(due.at);
                    }
                    let ends = [
                        times[0],
                        times[1],
                        times[cores + 3],
                        times[777],
                        times[777] + 1,
                        times[1_999],
                        SimTime::from_ms(60_000),
                    ];
                    for at in ends {
                        let label = format!("{cores} cores, seed {seed}, tied {tied}, end {at:?}");
                        let (mut one, mut idle) = (
                            world(cores, seed, tied, u64::MAX),
                            world(cores, seed, tied, u64::MAX),
                        );
                        let end = stage_arrival(&mut one, at);
                        stage_arrival(&mut idle, at);
                        one_at_a_time(&mut one, end);
                        idle.idle_gap();
                        assert_eq!(gap_state(&mut one), gap_state(&mut idle), "{label}");
                        // The horizon ends a gap just past it.
                        let (mut one, mut idle) = (
                            world(cores, seed, tied, at.as_ns()),
                            world(cores, seed, tied, at.as_ns()),
                        );
                        let horizon = Due { at, seq: u64::MAX };
                        one_at_a_time(&mut one, horizon);
                        idle.idle_gap();
                        assert_eq!(
                            gap_state(&mut one),
                            gap_state(&mut idle),
                            "{label} (horizon)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tied_slice_and_pulse_fire_in_stamp_order() {
        // A worker's CPU step ends at the very instant the kworker on its
        // core wakes. Whichever event was stamped first fires first, as
        // it would pop first off one shared heap. Slice first: the worker
        // accrues its step and parks before the pulse wakes on a free
        // core. Pulse first: the pulse evicts the worker (one more context
        // switch) with its step accrued but not retired, and the worker
        // retires it only after the burst.
        let step_ns = 3 * MILLIS;
        for slice_first in [true, false] {
            let cfg = SimConfig {
                cores: 1,
                ..SimConfig::default()
            };
            let mut w = World::new(cfg, Arc::new(FrameTable::new()));
            let worker = w.worker_tids[0];
            let steps = vec![Step::Cpu {
                ns: step_ns,
                profile: MemProfile::compute(),
            }];
            w.threads[worker].exec =
                Some(ExecState::new(steps, WorkItem::WorkerTask, SimTime::ZERO));
            if !slice_first {
                w.cores[0].pulse_due = w.stamp(SimTime(step_ns));
            }
            w.start_run(worker, 0);
            if slice_first {
                w.cores[0].pulse_due = w.stamp(SimTime(step_ns));
            }
            let (slice, pulse) = (w.cores[0].slice_due.expect("running"), w.cores[0].pulse_due);
            assert_eq!(slice.at, pulse.at, "the two events tie");
            assert_eq!(slice.seq < pulse.seq, slice_first);
            let mut fired = Vec::new();
            while w.threads[worker].exec.is_some() {
                let (due, source) = w.next_event().expect("events");
                w.now = due.at;
                w.fire(source);
                fired.push((due.at.as_ns(), source));
            }
            let bank = &w.threads[worker].counters;
            assert_eq!(bank.get(HwEvent::TaskClock), step_ns as f64);
            let (retired, switches) = (w.now.as_ns(), bank.get(HwEvent::ContextSwitches));
            if slice_first {
                assert_eq!(fired, [(step_ns, Source::Slice(0))]);
                assert_eq!((retired, switches), (step_ns, 1.0));
                assert!(w.cores[0].running.is_none());
            } else {
                let burst_end = w.cores[0].pulse_due.at.as_ns() - w.cores[0].pulse_period;
                assert_eq!(
                    fired,
                    [
                        (step_ns, Source::Pulse(0)),
                        (burst_end, Source::Pulse(0)),
                        (burst_end, Source::Slice(0)),
                    ]
                );
                assert_eq!((retired, switches), (burst_end, 2.0));
            }
            assert_eq!(w.threads[worker].state, ThreadState::Waiting);
        }
    }

    #[test]
    fn monitor_charges_accumulate() {
        struct Charger;
        impl Probe for Charger {
            fn on_dispatch_end(
                &mut self,
                ctx: &mut ProbeCtx<'_>,
                _info: &MessageInfo,
                _response_ns: u64,
            ) {
                ctx.charge_cpu(1000);
                ctx.charge_mem(64);
                ctx.note_counter_read();
            }
        }
        let mut table = FrameTable::new();
        let ev = ui_event(&mut table, 5, 1);
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_probe(Box::new(Charger));
        sim.run();
        let cost = sim.monitor_cost();
        assert_eq!(cost.cpu_ns, 1000);
        assert_eq!(cost.mem_bytes, 64);
        assert_eq!(cost.counter_reads, 1);
    }

    /// A main-thread event that posts one task to executor 0 and joins
    /// it behind a `FutureTask.get` frame.
    fn join_event(table: &mut FrameTable, main_cpu_ms: u64, task_io_ms: u64) -> Vec<Step> {
        let handler = table.intern_new("app.Main.onClick", "Main.java", 40);
        let culprit = table.intern_new("android.graphics.BitmapFactory.decodeFile", "B.java", 9);
        let join = table.intern_new("java.util.concurrent.FutureTask.get", "FutureTask.java", 1);
        vec![
            Step::Push(handler),
            Step::PostTask {
                executor: 0,
                token: 0,
                steps: vec![
                    Step::Push(culprit),
                    Step::Io {
                        ns: task_io_ms * MILLIS,
                    },
                    Step::Pop,
                ],
            },
            Step::Cpu {
                ns: main_cpu_ms * MILLIS,
                profile: MemProfile::ui(),
            },
            Step::Push(join),
            Step::JoinTask { token: 0 },
            Step::Pop,
            Step::Pop,
        ]
    }

    #[test]
    fn join_on_slow_task_blocks_main_until_completion() {
        let mut table = FrameTable::new();
        let ev = join_event(&mut table, 1, 200);
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_executor("SerialExecutor", 1);
        let summary = sim.run();
        assert!(!summary.truncated);
        let rec = &sim.records()[0];
        // The join holds the dispatch open for the task's whole I/O.
        assert!(rec.max_response_ns() >= 200 * MILLIS);
        let tasks = sim.task_records();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].status, TaskStatus::Done);
        assert!(tasks[0].started.unwrap() >= tasks[0].posted);
    }

    #[test]
    fn join_on_finished_task_is_free() {
        let mut table = FrameTable::new();
        // Task finishes (~6 ms) long before main reaches the join (~51 ms).
        let ev = join_event(&mut table, 50, 5);
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_executor("SerialExecutor", 1);
        sim.run();
        let rec = &sim.records()[0];
        let resp = rec.max_response_ns();
        assert!(resp >= 50 * MILLIS, "resp={resp}");
        assert!(resp < 120 * MILLIS, "resp={resp}");
    }

    #[test]
    fn saturated_pool_delays_queued_tasks() {
        let mut table = FrameTable::new();
        let handler = table.intern_new("app.Main.onClick", "Main.java", 40);
        let work = table.intern_new("com.google.gson.Gson.toJson", "Gson.java", 2);
        let task = |ms: u64| vec![Step::Push(work), Step::Io { ns: ms * MILLIS }, Step::Pop];
        let ev = vec![
            Step::Push(handler),
            Step::PostTask {
                executor: 0,
                token: 0,
                steps: task(80),
            },
            Step::PostTask {
                executor: 0,
                token: 1,
                steps: task(10),
            },
            Step::Cpu {
                ns: MILLIS,
                profile: MemProfile::ui(),
            },
            Step::Push(table.intern_new("java.util.concurrent.FutureTask.get", "F.java", 1)),
            Step::JoinTask { token: 1 },
            Step::Pop,
            Step::Pop,
        ];
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_executor("SerialExecutor", 1);
        sim.run();
        let tasks = sim.task_records();
        assert_eq!(tasks.len(), 2);
        // No task starts before its submit edge, and the width-1 pool
        // serializes: the queued task waits for the convoy head.
        for t in &tasks {
            assert!(t.started.unwrap() >= t.posted);
        }
        assert!(tasks[1].started.unwrap() >= tasks[0].finished.unwrap());
        // The join waited on the convoy, so the response covers both.
        assert!(sim.records()[0].max_response_ns() >= 90 * MILLIS);
    }

    #[test]
    fn causal_stack_names_worker_culprit_during_join_block() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct CausalSampler {
            plain: Rc<RefCell<Vec<Vec<FrameId>>>>,
            causal: Rc<RefCell<Vec<Vec<FrameId>>>>,
        }
        impl Probe for CausalSampler {
            fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
                let at = ctx.now() + 100 * MILLIS;
                ctx.set_timer(at, 1);
            }
            fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, _token: u64) {
                self.plain.borrow_mut().push(ctx.main_stack());
                self.causal.borrow_mut().push(ctx.main_stack_causal());
            }
        }
        let mut table = FrameTable::new();
        let ev = join_event(&mut table, 1, 300);
        // Interning is idempotent: re-interning yields the existing ids.
        let culprit = table.intern_new("android.graphics.BitmapFactory.decodeFile", "B.java", 9);
        let join = table.intern_new("java.util.concurrent.FutureTask.get", "FutureTask.java", 1);
        let plain = Rc::new(RefCell::new(Vec::new()));
        let causal = Rc::new(RefCell::new(Vec::new()));
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_executor("SerialExecutor", 1);
        sim.add_probe(Box::new(CausalSampler {
            plain: plain.clone(),
            causal: causal.clone(),
        }));
        sim.run();
        let plain = plain.borrow();
        let causal = causal.borrow();
        assert_eq!(plain.len(), 1);
        // Mid-join the plain stack bottoms out at the join site...
        assert_eq!(*plain[0].last().unwrap(), join);
        // ...while the causal stack walks the wait edge to the worker.
        assert_eq!(*causal[0].last().unwrap(), culprit);
        assert_eq!(&causal[0][..plain[0].len()], &plain[0][..]);
    }

    #[test]
    fn causal_stack_walks_serial_queue_to_convoy_head() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct S(Rc<RefCell<Vec<Vec<FrameId>>>>);
        impl Probe for S {
            fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
                let at = ctx.now() + 50 * MILLIS;
                ctx.set_timer(at, 1);
            }
            fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, _token: u64) {
                self.0.borrow_mut().push(ctx.main_stack_causal());
            }
        }
        let mut table = FrameTable::new();
        let handler = table.intern_new("app.Main.onClick", "Main.java", 40);
        let convoy = table.intern_new("com.app.Db.vacuum", "Db.java", 7);
        let fast = table.intern_new("com.app.Db.readRow", "Db.java", 9);
        let join = table.intern_new("java.util.concurrent.FutureTask.get", "F.java", 1);
        let ev = vec![
            Step::Push(handler),
            Step::PostTask {
                executor: 0,
                token: 0,
                steps: vec![Step::Push(convoy), Step::Io { ns: 200 * MILLIS }, Step::Pop],
            },
            Step::PostTask {
                executor: 0,
                token: 1,
                steps: vec![Step::Push(fast), Step::Io { ns: 2 * MILLIS }, Step::Pop],
            },
            Step::Cpu {
                ns: MILLIS,
                profile: MemProfile::ui(),
            },
            Step::Push(join),
            Step::JoinTask { token: 1 },
            Step::Pop,
            Step::Pop,
        ];
        let stacks = Rc::new(RefCell::new(Vec::new()));
        let mut sim = one_action_sim(vec![ev], table);
        sim.add_executor("SerialExecutor", 1);
        sim.add_probe(Box::new(S(stacks.clone())));
        sim.run();
        let stacks = stacks.borrow();
        assert_eq!(stacks.len(), 1);
        // The joined task is still queued behind the convoy head, so the
        // causal walk lands on the *convoy* frame, not the joined task.
        assert_eq!(*stacks[0].last().unwrap(), convoy);
    }

    #[test]
    fn unused_executor_never_perturbs_the_schedule() {
        let build = |with_executor: bool| {
            let mut table = FrameTable::new();
            let ev = io_event(&mut table, 100);
            let ev2 = ui_event(&mut table, 25, 8);
            let mut sim = Simulator::new(SimConfig::default(), table);
            if with_executor {
                sim.add_executor("SerialExecutor", 2);
            }
            sim.schedule_action(
                SimTime::from_ms(5),
                ActionRequest {
                    uid: ActionUid(1),
                    name: "a".into(),
                    events: vec![ev],
                },
            );
            sim.schedule_action(
                SimTime::from_ms(600),
                ActionRequest {
                    uid: ActionUid(2),
                    name: "b".into(),
                    events: vec![ev2],
                },
            );
            sim.run();
            (
                sim.records()
                    .iter()
                    .map(|r| r.max_response_ns())
                    .collect::<Vec<_>>(),
                sim.thread_counter(sim.main_tid(), HwEvent::Instructions),
            )
        };
        assert_eq!(build(false), build(true));
    }
}
