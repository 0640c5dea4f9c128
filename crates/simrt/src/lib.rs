//! # hd-simrt — simulated Android-like app runtime
//!
//! This crate is the hardware/OS substrate of the Hang Doctor
//! reproduction. It provides a deterministic discrete-event simulation of
//! the environment Hang Doctor observes on a real phone:
//!
//! * a virtual nanosecond clock ([`time::SimTime`]);
//! * a multi-core preemptive scheduler with per-thread kernel event
//!   accounting (context switches, task clock, migrations, faults);
//! * a memory/pipeline model deriving the PMU events ([`work::MemProfile`]);
//! * an app process with a main thread running a Looper/`MessageQueue`,
//!   a render thread, and background workers ([`simulator::Simulator`]);
//! * pinned per-core system threads that model the rest of the device;
//! * a probe seam ([`probe::Probe`]) exposing exactly the observation
//!   channels Hang Doctor uses: `Looper.setMessageLogging`-style dispatch
//!   hooks, per-thread performance counters, main-thread stack samples,
//!   and timers — plus cost charging so monitoring overhead is measurable.
//!
//! Everything is seeded and single-threaded: the same configuration and
//! inputs always produce the same timeline.

pub mod counters;
pub mod device;
pub mod frame;
pub mod looper;
pub mod name;
pub mod probe;
pub mod recorder;
pub mod rng;
pub mod simulator;
pub mod strided;
pub mod thread;
pub mod time;
pub mod work;

pub use counters::{CounterBank, HwEvent, NUM_EVENTS, NUM_KERNEL_EVENTS, PMU_REGISTERS};
pub use device::DeviceProfile;
pub use frame::{Frame, FrameId, FrameTable};
pub use looper::{
    ActionInfo, ActionRecord, ActionRequest, ActionUid, ExecId, Message, MessageInfo,
};
pub use name::{NameId, NameTable};
pub use probe::{MonitorCost, Probe};
pub use recorder::{DispatchSpan, Timeline, TimelineRecorder};
pub use rng::{JitterFan, SimRng};
pub use simulator::{ProbeCtx, RunSummary, SimConfig, Simulator, TaskRecord, TaskStatus};
pub use strided::strided_map;
pub use thread::{SimThread, ThreadId, ThreadKind, ThreadState};
pub use time::{SimTime, MICROS, MILLIS, SECONDS};
pub use work::{nominal_duration, MemProfile, Step};
