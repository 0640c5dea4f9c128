//! Simulated threads and their execution state.
//!
//! Every app process has exactly one *main* thread (runs the Looper that
//! dispatches input events), one *render* thread (consumes frames posted
//! by UI work, Android ≥ 5.0), and a pool of background *worker* threads.
//! Additional *system* threads model the rest of the device: they wake
//! periodically, run short bursts, and preempt app threads — which is
//! what makes context-switch counts meaningful.

use std::collections::VecDeque;

use crate::counters::CounterBank;
use crate::frame::FrameId;
use crate::looper::MessageInfo;
use crate::time::SimTime;
use crate::work::Step;

/// Dense thread identifier within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Role of a simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadKind {
    /// The app's main (UI) thread.
    Main,
    /// The app's render thread.
    Render,
    /// A background worker owned by the app.
    Worker,
    /// A device/system thread outside the app.
    System,
}

/// Scheduling state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Executing on the given core.
    Running {
        /// Core index.
        core: usize,
    },
    /// Runnable, waiting for a core.
    Ready,
    /// Off-CPU until a wake event (I/O completion or periodic sleep).
    Blocked,
    /// Idle: no work available from its source.
    Waiting,
}

/// The kind of work item currently executing on a thread.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkItem {
    /// An input-event message dispatched by the main thread's Looper.
    Message(MessageInfo),
    /// One render frame.
    RenderFrame,
    /// A background task posted with [`Step::PostWorker`].
    WorkerTask,
    /// A task submitted to a bounded executor with [`Step::PostTask`];
    /// carries the global task id so completion can wake join waiters.
    ExecutorTask {
        /// Global task id in the simulator's task table.
        task: u64,
    },
}

/// Where a thread pulls its next work item from.
#[derive(Clone, Debug)]
pub enum WorkSource {
    /// Pulls [`crate::looper::Message`]s from the process message queue.
    MainLooper,
    /// Pulls frames from the render queue.
    RenderQueue,
    /// Pulls tasks from the shared worker queue.
    WorkerQueue,
    /// Pulls tasks from a bounded executor's submission queue.
    ExecutorQueue {
        /// Executor index in the simulator's executor table.
        executor: usize,
    },
    /// Self-generates periodic bursts (system threads), drawn by the
    /// simulator's per-core pulse train. A burst counts kernel events
    /// only: task-clock, cpu-clock and context switches.
    Pulse,
}

/// In-flight execution state of one work item.
#[derive(Clone, Debug)]
pub struct ExecState {
    /// Remaining steps; the front is current.
    pub steps: VecDeque<Step>,
    /// Current call stack (top is last).
    pub stack: Vec<FrameId>,
    /// What kind of item this is.
    pub item: WorkItem,
    /// When execution of this item began (dequeue time for messages).
    pub began: SimTime,
    /// Future handles minted by [`Step::PostTask`] within this item:
    /// `(token, task_id)` pairs, scoped to the item so tokens from
    /// different messages never collide.
    pub handles: Vec<(u32, u64)>,
}

impl ExecState {
    /// Creates execution state for a fresh item.
    pub fn new(steps: Vec<Step>, item: WorkItem, began: SimTime) -> Self {
        ExecState {
            steps: steps.into(),
            stack: Vec::new(),
            item,
            began,
            handles: Vec::new(),
        }
    }

    /// Creates execution state reusing an already-allocated deque (the
    /// simulator recycles burst/frame buffers to keep the event loop
    /// allocation-free).
    pub fn from_deque(steps: VecDeque<Step>, item: WorkItem, began: SimTime) -> Self {
        ExecState {
            steps,
            stack: Vec::new(),
            item,
            began,
            handles: Vec::new(),
        }
    }
}

/// One simulated thread.
#[derive(Clone, Debug)]
pub struct SimThread {
    /// Identifier (index into the simulator's thread table).
    pub id: ThreadId,
    /// Human-readable name (e.g. `main`, `RenderThread`).
    pub name: String,
    /// Role.
    pub kind: ThreadKind,
    /// Scheduling priority; higher runs first.
    pub priority: u8,
    /// Current scheduling state.
    pub state: ThreadState,
    /// Ground-truth performance counters. System threads count kernel
    /// clock and context-switch events only; their PMU and page-fault
    /// events stay at zero.
    pub counters: CounterBank,
    /// Bytes this thread transferred over the network.
    pub net_bytes: u64,
    /// Core the thread last ran on (for migration counting).
    pub last_core: Option<usize>,
    /// Work item currently being executed, if any.
    pub exec: Option<ExecState>,
    /// Where the next item comes from.
    pub source: WorkSource,
}

impl SimThread {
    /// Creates a thread in the [`ThreadState::Waiting`] state.
    pub fn new(
        id: ThreadId,
        name: impl Into<String>,
        kind: ThreadKind,
        priority: u8,
        source: WorkSource,
    ) -> Self {
        SimThread {
            id,
            name: name.into(),
            kind,
            priority,
            state: ThreadState::Waiting,
            counters: CounterBank::new(),
            net_bytes: 0,
            last_core: None,
            exec: None,
            source,
        }
    }

    /// Returns the current call stack (empty when idle).
    pub fn stack(&self) -> &[FrameId] {
        self.exec
            .as_ref()
            .map(|e| e.stack.as_slice())
            .unwrap_or(&[])
    }

    /// Returns whether this thread belongs to the app process.
    pub fn is_app(&self) -> bool {
        !matches!(self.kind, ThreadKind::System)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_is_idle() {
        let t = SimThread::new(
            ThreadId(0),
            "main",
            ThreadKind::Main,
            2,
            WorkSource::MainLooper,
        );
        assert_eq!(t.state, ThreadState::Waiting);
        assert!(t.stack().is_empty());
        assert!(t.exec.is_none());
        assert!(t.is_app());
    }

    #[test]
    fn system_threads_are_not_app() {
        let t = SimThread::new(
            ThreadId(9),
            "kworker/3",
            ThreadKind::System,
            3,
            WorkSource::Pulse,
        );
        assert!(!t.is_app());
    }

    #[test]
    fn exec_state_exposes_stack() {
        let mut e = ExecState::new(vec![Step::Pop], WorkItem::RenderFrame, SimTime::ZERO);
        e.stack.push(FrameId(3));
        let mut t = SimThread::new(
            ThreadId(1),
            "RenderThread",
            ThreadKind::Render,
            2,
            WorkSource::RenderQueue,
        );
        t.exec = Some(e);
        assert_eq!(t.stack(), &[FrameId(3)]);
    }
}
