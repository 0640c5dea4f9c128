//! Work descriptions executed by simulated threads.
//!
//! App behaviour is compiled (by `hd-appmodel`) into flat sequences of
//! [`Step`]s. Timed steps occupy the CPU or block on I/O; instantaneous
//! steps manipulate the call stack or post work to other threads. A
//! [`MemProfile`] describes how a unit of CPU time translates into
//! memory-system and pipeline events, which is what ultimately drives the
//! performance-event counters Hang Doctor's S-Checker reads.

use crate::counters::{CounterBank, HwEvent};
use crate::frame::FrameId;
use crate::rng::{JitterFan, SimRng};
use crate::time::MILLIS;

/// Nominal core frequency used to derive cycle counts (2 GHz).
pub const CYCLES_PER_NS: f64 = 2.0;

/// How a unit of CPU time maps onto memory-system and pipeline events.
///
/// All rates are *expected values*; the simulator applies multiplicative
/// jitter when accruing so repeated executions differ realistically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemProfile {
    /// Instructions retired per nanosecond of CPU time.
    pub ips: f64,
    /// Minor page faults per millisecond of CPU time.
    pub minor_faults_per_ms: f64,
    /// Major page faults per millisecond of CPU time (usually ~0).
    pub major_faults_per_ms: f64,
    /// Last-level cache references per 1000 instructions.
    pub cache_refs_per_kinstr: f64,
    /// Fraction of cache references that miss.
    pub cache_miss_ratio: f64,
    /// Fraction of instructions that are data loads.
    pub load_frac: f64,
    /// Fraction of instructions that are data stores.
    pub store_frac: f64,
    /// Fraction of instructions that are branches.
    pub branch_frac: f64,
    /// Fraction of branches mispredicted.
    pub branch_miss_ratio: f64,
    /// TLB misses per 1000 instructions.
    pub tlb_miss_per_kinstr: f64,
    /// Fraction of cycles stalled (front+back end combined).
    pub stall_frac: f64,
}

impl MemProfile {
    /// Typical light UI bookkeeping on the main thread (listener code,
    /// layout measurement, view updates).
    pub fn ui() -> Self {
        MemProfile {
            ips: 2.4,
            minor_faults_per_ms: 0.8,
            major_faults_per_ms: 0.004,
            cache_refs_per_kinstr: 28.0,
            cache_miss_ratio: 0.06,
            load_frac: 0.26,
            store_frac: 0.12,
            branch_frac: 0.18,
            branch_miss_ratio: 0.03,
            tlb_miss_per_kinstr: 0.4,
            stall_frac: 0.25,
        }
    }

    /// Render-thread frame generation (display lists, GPU upload staging).
    pub fn render() -> Self {
        MemProfile {
            ips: 2.0,
            minor_faults_per_ms: 1.2,
            major_faults_per_ms: 0.005,
            cache_refs_per_kinstr: 40.0,
            cache_miss_ratio: 0.08,
            load_frac: 0.30,
            store_frac: 0.18,
            branch_frac: 0.12,
            branch_miss_ratio: 0.02,
            tlb_miss_per_kinstr: 0.6,
            stall_frac: 0.30,
        }
    }

    /// Compute-bound self-developed work (heavy loops, serialization).
    pub fn compute() -> Self {
        MemProfile {
            ips: 2.2,
            minor_faults_per_ms: 0.6,
            major_faults_per_ms: 0.0,
            cache_refs_per_kinstr: 18.0,
            cache_miss_ratio: 0.04,
            load_frac: 0.24,
            store_frac: 0.10,
            branch_frac: 0.22,
            branch_miss_ratio: 0.05,
            tlb_miss_per_kinstr: 0.3,
            stall_frac: 0.15,
        }
    }

    /// Memory-intensive work touching large fresh buffers (bitmap decode,
    /// HTML parsing, JSON serialization of large objects).
    pub fn memory_heavy() -> Self {
        MemProfile {
            ips: 1.0,
            minor_faults_per_ms: 10.0,
            major_faults_per_ms: 0.008,
            cache_refs_per_kinstr: 70.0,
            cache_miss_ratio: 0.22,
            load_frac: 0.34,
            store_frac: 0.22,
            branch_frac: 0.10,
            branch_miss_ratio: 0.04,
            tlb_miss_per_kinstr: 2.5,
            stall_frac: 0.55,
        }
    }

    /// Thin CPU shim around blocking I/O (syscall setup, buffer copies).
    pub fn io_stub() -> Self {
        MemProfile {
            ips: 0.6,
            minor_faults_per_ms: 8.0,
            major_faults_per_ms: 0.008,
            cache_refs_per_kinstr: 35.0,
            cache_miss_ratio: 0.12,
            load_frac: 0.30,
            store_frac: 0.16,
            branch_frac: 0.14,
            branch_miss_ratio: 0.03,
            tlb_miss_per_kinstr: 1.0,
            stall_frac: 0.40,
        }
    }

    /// Short kernel-ish bursts run by simulated system threads.
    pub fn system() -> Self {
        MemProfile {
            ips: 1.4,
            minor_faults_per_ms: 0.3,
            major_faults_per_ms: 0.0,
            cache_refs_per_kinstr: 25.0,
            cache_miss_ratio: 0.10,
            load_frac: 0.28,
            store_frac: 0.14,
            branch_frac: 0.16,
            branch_miss_ratio: 0.04,
            tlb_miss_per_kinstr: 0.8,
            stall_frac: 0.30,
        }
    }

    /// Accrues `cpu_ns` of execution under this profile into `bank`.
    ///
    /// Exact kernel-time accounting (task-clock/cpu-clock) is split from
    /// the jittered derived events: the clocks advance by `cpu_ns`
    /// exactly, then [`MemProfile::accrue_derived`] produces every PMU
    /// event from a single parent RNG draw. Zero-length segments return
    /// without touching the RNG, so the parent stream advances by exactly
    /// one draw per non-empty accrue call — the contract the fleet's
    /// thread-count-independence rests on.
    pub fn accrue(&self, bank: &mut CounterBank, cpu_ns: u64, rng: &mut SimRng) {
        if cpu_ns == 0 {
            return;
        }
        let ns = cpu_ns as f64;
        bank.add(HwEvent::TaskClock, ns);
        bank.add(HwEvent::CpuClock, ns);
        self.accrue_derived(bank, ns, rng.next_u64());
    }

    /// Accrues the jittered derived PMU events for `ns` nanoseconds of
    /// CPU time, expanding `entropy` (one parent draw) through a
    /// [`JitterFan`]. Each derived event still gets an independent
    /// multiplicative jitter — quantized to 256 levels over the same
    /// ±12% band the per-event draws used — so per-sample correlation
    /// analysis sees the same spread at a fraction of the cost.
    fn accrue_derived(&self, bank: &mut CounterBank, ns: f64, entropy: u64) {
        let mut fan = JitterFan::new(entropy);
        let mut j = move || JITTER_TABLE[fan.next_u8() as usize];

        let instr = self.ips * ns * j();
        bank.add(HwEvent::Instructions, instr);

        let cycles = ns * CYCLES_PER_NS * j();
        bank.add(HwEvent::CpuCycles, cycles);
        bank.add(HwEvent::BusCycles, cycles / 8.0 * j());
        bank.add(
            HwEvent::StalledCyclesFrontend,
            cycles * self.stall_frac * 0.4 * j(),
        );
        bank.add(
            HwEvent::StalledCyclesBackend,
            cycles * self.stall_frac * 0.6 * j(),
        );

        let ms = ns / MILLIS as f64;
        let minor = self.minor_faults_per_ms * ms * j();
        let major = self.major_faults_per_ms * ms * j();
        bank.add(HwEvent::MinorFaults, minor);
        bank.add(HwEvent::MajorFaults, major);
        bank.add(HwEvent::PageFaults, minor + major);

        let refs = instr / 1000.0 * self.cache_refs_per_kinstr * j();
        let misses = refs * self.cache_miss_ratio * j();
        bank.add(HwEvent::CacheReferences, refs);
        bank.add(HwEvent::CacheMisses, misses);

        let loads = instr * self.load_frac * j();
        let stores = instr * self.store_frac * j();
        bank.add(HwEvent::L1DcacheLoads, loads);
        bank.add(HwEvent::L1DcacheStores, stores);
        bank.add(
            HwEvent::L1DcacheLoadMisses,
            loads * self.cache_miss_ratio * 0.5 * j(),
        );
        bank.add(
            HwEvent::L1DcacheStoreMisses,
            stores * self.cache_miss_ratio * 0.4 * j(),
        );
        bank.add(HwEvent::RawL1Dcache, (loads + stores) * j());
        bank.add(HwEvent::RawL1DcacheRefill, misses * 0.9 * j());
        bank.add(HwEvent::RawL2Dcache, refs * 0.8 * j());
        bank.add(HwEvent::RawL2DcacheRefill, misses * 0.7 * j());

        let icache = instr / 4.0 * j();
        bank.add(HwEvent::L1IcacheLoads, icache);
        bank.add(HwEvent::L1IcacheLoadMisses, icache * 0.01 * j());
        bank.add(HwEvent::RawL1Icache, icache * j());
        bank.add(HwEvent::RawL1IcacheRefill, icache * 0.01 * j());

        bank.add(HwEvent::LlcLoads, refs * 0.6 * j());
        bank.add(HwEvent::LlcLoadMisses, misses * 0.6 * j());
        bank.add(HwEvent::LlcStores, refs * 0.25 * j());
        bank.add(HwEvent::LlcStoreMisses, misses * 0.25 * j());

        let tlb_misses = instr / 1000.0 * self.tlb_miss_per_kinstr * j();
        bank.add(HwEvent::DtlbLoads, loads * j());
        bank.add(HwEvent::DtlbLoadMisses, tlb_misses * 0.7 * j());
        bank.add(HwEvent::ItlbLoads, icache * j());
        bank.add(HwEvent::ItlbLoadMisses, tlb_misses * 0.3 * j());
        bank.add(HwEvent::RawL1Dtlb, loads * j());
        bank.add(HwEvent::RawL1DtlbRefill, tlb_misses * 0.7 * j());
        bank.add(HwEvent::RawL1Itlb, icache * j());
        bank.add(HwEvent::RawL1ItlbRefill, tlb_misses * 0.3 * j());

        let branches = instr * self.branch_frac * j();
        bank.add(HwEvent::BranchInstructions, branches);
        bank.add(HwEvent::BranchLoads, branches * j());
        let bmiss = branches * self.branch_miss_ratio * j();
        bank.add(HwEvent::BranchMisses, bmiss);
        bank.add(HwEvent::BranchLoadMisses, bmiss * j());

        bank.add(HwEvent::RawBusAccess, refs * 0.5 * j());
        bank.add(HwEvent::RawMemAccess, (loads + stores) * 1.05 * j());

        // Rare correctness-path events stay near zero on a healthy app:
        // a 16-bit fan slice against a probability threshold replaces the
        // old full `chance` draw.
        let mut fan16 = JitterFan::new(entropy ^ 0xA5A5_A5A5_A5A5_A5A5);
        if rare_hit(fan16.next_u16(), ms * 0.001) {
            bank.add(HwEvent::AlignmentFaults, 1.0);
        }
        if rare_hit(fan16.next_u16(), ms * 0.0005) {
            bank.add(HwEvent::EmulationFaults, 1.0);
        }
    }
}

/// Multiplicative jitter band applied to every derived PMU event.
const JITTER_SPREAD: f64 = 0.12;

/// 256 evenly spaced multiplicative jitter factors over
/// `[1 - JITTER_SPREAD, 1 + JITTER_SPREAD]`, centred per bucket so the
/// table mean is exactly 1. Indexed by one fan byte per derived event:
/// a load from this (2 KiB, L1-resident) table replaces a full RNG draw
/// plus float-range conversion per event.
static JITTER_TABLE: [f64; 256] = {
    let mut table = [0.0; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = 1.0 - JITTER_SPREAD + 2.0 * JITTER_SPREAD * (i as f64 + 0.5) / 256.0;
        i += 1;
    }
    table
};

/// Returns whether a 16-bit fan slice lands under probability `p`.
#[inline]
fn rare_hit(slice: u16, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    (slice as f64) < p * 65536.0
}

/// One step of a compiled work item.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Push a frame onto the executing thread's call stack (free).
    Push(FrameId),
    /// Pop the top frame (free).
    Pop,
    /// Occupy the CPU for `ns` nanoseconds under `profile`.
    Cpu {
        /// CPU time consumed.
        ns: u64,
        /// Event-generation profile for this work.
        profile: MemProfile,
    },
    /// Block off-CPU for `ns` nanoseconds (disk, camera HAL...).
    Io {
        /// Wall time spent blocked.
        ns: u64,
    },
    /// Block on the network, transferring `bytes` (footnote 2 of the
    /// paper: network on the main thread is a well-known hang class,
    /// detectable by monitoring the main thread's network activity).
    NetIo {
        /// Wall time spent blocked.
        ns: u64,
        /// Bytes transferred (accounted per thread).
        bytes: u64,
    },
    /// Enqueue `frames` frames of `frame_ns` each on the render thread.
    PostRender {
        /// Number of frames handed to the render thread.
        frames: u32,
        /// CPU cost of each frame on the render thread.
        frame_ns: u64,
    },
    /// Enqueue a task on a background worker thread.
    PostWorker(Vec<Step>),
    /// Submit a task to a bounded executor (pool or serial queue). The
    /// task runs when one of the executor's threads becomes free; `token`
    /// names the resulting future within the posting work item so a later
    /// [`Step::JoinTask`] can wait on it.
    PostTask {
        /// Executor index (from [`crate::Simulator::add_executor`]).
        executor: u32,
        /// Future handle, scoped to the posting work item.
        token: u32,
        /// The task body executed on the executor thread.
        steps: Vec<Step>,
    },
    /// Block until the task posted under `token` completes (a
    /// future-`get()` wait edge). Instant if the task already finished;
    /// otherwise the thread blocks with no timed wake and is woken by the
    /// task's completion event.
    JoinTask {
        /// Future handle of a prior [`Step::PostTask`] in the same item.
        token: u32,
    },
}

impl Step {
    /// Returns the CPU time this step itself consumes on the executing
    /// thread (posted work is excluded).
    pub fn cpu_ns(&self) -> u64 {
        match self {
            Step::Cpu { ns, .. } => *ns,
            _ => 0,
        }
    }

    /// Returns the blocked (off-CPU) time of this step.
    pub fn io_ns(&self) -> u64 {
        match self {
            Step::Io { ns } | Step::NetIo { ns, .. } => *ns,
            _ => 0,
        }
    }

    /// Returns whether this step always completes instantaneously.
    /// `JoinTask` is excluded: it blocks for a data-dependent duration
    /// (zero if the joined task already finished).
    pub fn is_instant(&self) -> bool {
        !matches!(
            self,
            Step::Cpu { .. } | Step::Io { .. } | Step::NetIo { .. } | Step::JoinTask { .. }
        )
    }
}

/// Total busy (CPU) and blocked (I/O) time of a step sequence on the
/// executing thread, ignoring scheduling delays and posted work.
pub fn nominal_duration(steps: &[Step]) -> (u64, u64) {
    let cpu = steps.iter().map(Step::cpu_ns).sum();
    let io = steps.iter().map(Step::io_ns).sum();
    (cpu, io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accrue_tracks_task_clock_exactly() {
        let mut bank = CounterBank::new();
        let mut rng = SimRng::seed_from_u64(1);
        MemProfile::ui().accrue(&mut bank, 5 * MILLIS, &mut rng);
        assert_eq!(bank.get(HwEvent::TaskClock), (5 * MILLIS) as f64);
        assert_eq!(bank.get(HwEvent::CpuClock), (5 * MILLIS) as f64);
    }

    #[test]
    fn accrue_zero_is_noop() {
        let mut bank = CounterBank::new();
        let mut rng = SimRng::seed_from_u64(1);
        MemProfile::ui().accrue(&mut bank, 0, &mut rng);
        assert_eq!(bank.get(HwEvent::Instructions), 0.0);
    }

    #[test]
    fn accrue_consumes_exactly_one_draw() {
        // The v2 kernel's determinism contract: one parent draw per
        // non-empty accrue, regardless of profile or duration.
        for (profile, ns) in [
            (MemProfile::ui(), 100),
            (MemProfile::memory_heavy(), 50 * MILLIS),
            (MemProfile::system(), 350_000),
        ] {
            let mut rng = SimRng::seed_from_u64(11);
            let mut witness = SimRng::seed_from_u64(11);
            witness.next_u64();
            let expected = witness.next_u64();
            let mut bank = CounterBank::new();
            profile.accrue(&mut bank, ns, &mut rng);
            assert_eq!(rng.next_u64(), expected, "profile consumed != 1 draw");
        }
    }

    #[test]
    fn accrue_zero_consumes_no_draw() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut witness = SimRng::seed_from_u64(12);
        let mut bank = CounterBank::new();
        MemProfile::ui().accrue(&mut bank, 0, &mut rng);
        assert_eq!(rng.next_u64(), witness.next_u64());
    }

    #[test]
    fn jitter_table_is_centered_and_banded() {
        let mean: f64 = JITTER_TABLE.iter().sum::<f64>() / 256.0;
        assert!((mean - 1.0).abs() < 1e-12, "table mean {mean}");
        for &f in &JITTER_TABLE {
            assert!(f > 1.0 - JITTER_SPREAD && f < 1.0 + JITTER_SPREAD);
        }
    }

    #[test]
    fn memory_heavy_faults_dominate_ui() {
        let mut heavy = CounterBank::new();
        let mut light = CounterBank::new();
        let mut rng = SimRng::seed_from_u64(2);
        MemProfile::memory_heavy().accrue(&mut heavy, 100 * MILLIS, &mut rng);
        MemProfile::ui().accrue(&mut light, 100 * MILLIS, &mut rng);
        assert!(heavy.get(HwEvent::PageFaults) > 3.0 * light.get(HwEvent::PageFaults));
        assert!(heavy.get(HwEvent::CacheMisses) > light.get(HwEvent::CacheMisses));
    }

    #[test]
    fn page_faults_are_minor_plus_major() {
        let mut bank = CounterBank::new();
        let mut rng = SimRng::seed_from_u64(3);
        MemProfile::io_stub().accrue(&mut bank, 50 * MILLIS, &mut rng);
        let total = bank.get(HwEvent::PageFaults);
        let parts = bank.get(HwEvent::MinorFaults) + bank.get(HwEvent::MajorFaults);
        assert!((total - parts).abs() < 1e-6);
    }

    #[test]
    fn jitter_makes_repeats_differ() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut a = CounterBank::new();
        let mut b = CounterBank::new();
        MemProfile::compute().accrue(&mut a, 10 * MILLIS, &mut rng);
        MemProfile::compute().accrue(&mut b, 10 * MILLIS, &mut rng);
        assert_ne!(a.get(HwEvent::Instructions), b.get(HwEvent::Instructions));
    }

    #[test]
    fn nominal_duration_sums_timed_steps() {
        let steps = vec![
            Step::Push(FrameId(0)),
            Step::Cpu {
                ns: 100,
                profile: MemProfile::ui(),
            },
            Step::Io { ns: 40 },
            Step::PostRender {
                frames: 2,
                frame_ns: 10,
            },
            Step::Pop,
        ];
        assert_eq!(nominal_duration(&steps), (100, 40));
        assert!(steps[0].is_instant());
        assert!(!steps[1].is_instant());
        assert!(!steps[2].is_instant());
        assert!(steps[3].is_instant());
    }
}
