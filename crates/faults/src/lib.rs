//! # hd-faults — deterministic fault injection for the monitoring stack
//!
//! On real phones the observation layer Hang Doctor depends on is
//! unreliable: `perf_event_open` reads fail under PMU contention, stack
//! samples arrive late or truncated when the sampling thread is starved,
//! and timers skew against the monotonic clock. This crate models those
//! failures as a **seed-deterministic fault schedule** so every layer of
//! the pipeline can be tested — and hardened — against them without
//! giving up reproducibility.
//!
//! ## Determinism
//!
//! A [`FaultPlan`] owns its own [`SimRng`] stream, seeded from
//! `(root_seed, job index)` through [`fault_seed`] exactly like fleet
//! device seeds. Two consequences:
//!
//! * the fault schedule of a job depends on nothing but the seed pair and
//!   the sequence of injection points the job reaches — never on thread
//!   count or scheduling, so chaos fleets merge byte-identically;
//! * a plan whose rates are all zero draws **nothing** from its RNG and
//!   mutates no state, so a faults-disabled run is bit-exact with a build
//!   that has no fault layer at all.
//!
//! ## Categories
//!
//! | category | models | degradation path |
//! |---|---|---|
//! | counter-read failure | `perf_event_open`/read errors | bounded retry with backoff, then partial S-Check |
//! | stale counter | snapshot captured partway through the window | silent (quantified by the chaos differential) |
//! | dropped sample | sampler starved, sample lost | Diagnoser aborts lossy sessions and re-arms |
//! | truncated sample | partial stack unwind | occurrence-factor analysis absorbs it |
//! | sampler latency | late sampler start | window simply starts late |
//! | clock jitter | monotonic timer skew | watchdog/sampler deadlines shift |

use hd_simrt::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// The kinds of fault the plan can inject, one per monitoring failure
/// mode observed on real devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultCategory {
    /// A performance-counter read fails outright.
    CounterRead,
    /// A counter read succeeds but returns a stale snapshot that misses
    /// the tail of the measurement window.
    StaleCounter,
    /// A stack sample is attempted but lost.
    DroppedSample,
    /// A stack sample arrives with only the outermost frames.
    TruncatedSample,
    /// The sampler starts late after being armed.
    SamplerLatency,
    /// A monitoring timer deadline skews against the monotonic clock.
    ClockJitter,
}

impl FaultCategory {
    /// Every category, in declaration order.
    pub const ALL: [FaultCategory; 6] = [
        FaultCategory::CounterRead,
        FaultCategory::StaleCounter,
        FaultCategory::DroppedSample,
        FaultCategory::TruncatedSample,
        FaultCategory::SamplerLatency,
        FaultCategory::ClockJitter,
    ];

    /// Stable kebab-case name (used in reports and the differential
    /// harness).
    pub fn name(self) -> &'static str {
        match self {
            FaultCategory::CounterRead => "counter-read",
            FaultCategory::StaleCounter => "stale-counter",
            FaultCategory::DroppedSample => "dropped-sample",
            FaultCategory::TruncatedSample => "truncated-sample",
            FaultCategory::SamplerLatency => "sampler-latency",
            FaultCategory::ClockJitter => "clock-jitter",
        }
    }
}

/// Per-category injection probabilities, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability that one counter read attempt fails.
    pub counter_read_failure: f64,
    /// Probability that a successful counter read is stale.
    pub stale_counter: f64,
    /// Probability that a stack sample is dropped.
    pub dropped_sample: f64,
    /// Probability that a stack sample is truncated.
    pub truncated_sample: f64,
    /// Probability that a sampler window starts late.
    pub sampler_latency: f64,
    /// Probability that a timer deadline is jittered.
    pub clock_jitter: f64,
}

impl FaultRates {
    /// Returns the rate configured for `category`.
    pub fn rate(&self, category: FaultCategory) -> f64 {
        match category {
            FaultCategory::CounterRead => self.counter_read_failure,
            FaultCategory::StaleCounter => self.stale_counter,
            FaultCategory::DroppedSample => self.dropped_sample,
            FaultCategory::TruncatedSample => self.truncated_sample,
            FaultCategory::SamplerLatency => self.sampler_latency,
            FaultCategory::ClockJitter => self.clock_jitter,
        }
    }

    fn set_rate(&mut self, category: FaultCategory, rate: f64) {
        let r = match category {
            FaultCategory::CounterRead => &mut self.counter_read_failure,
            FaultCategory::StaleCounter => &mut self.stale_counter,
            FaultCategory::DroppedSample => &mut self.dropped_sample,
            FaultCategory::TruncatedSample => &mut self.truncated_sample,
            FaultCategory::SamplerLatency => &mut self.sampler_latency,
            FaultCategory::ClockJitter => &mut self.clock_jitter,
        };
        *r = rate.clamp(0.0, 1.0);
    }
}

/// Fault-injection configuration: rates plus the magnitude parameters of
/// the individual fault kinds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-category injection rates.
    pub rates: FaultRates,
    /// A stale snapshot misses up to this fraction of the measurement
    /// window (the served delta is scaled by `1 - U(0, max)`).
    pub max_stale_fraction: f64,
    /// Maximum extra delay before a late sampler window starts, ns.
    pub max_sampler_latency_ns: u64,
    /// Maximum absolute timer-deadline skew, ns.
    pub max_clock_jitter_ns: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            rates: FaultRates::default(),
            max_stale_fraction: 0.6,
            max_sampler_latency_ns: 20_000_000, // 20 ms
            max_clock_jitter_ns: 4_000_000,     // 4 ms
        }
    }
}

impl FaultConfig {
    /// A configuration that injects nothing (the production default).
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// Chaos mode: every category injects at `rate` (clamped to
    /// `[0, 1]`), with default magnitudes.
    pub fn chaos(rate: f64) -> FaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            rates: FaultRates {
                counter_read_failure: rate,
                stale_counter: rate,
                dropped_sample: rate,
                truncated_sample: rate,
                sampler_latency: rate,
                clock_jitter: rate,
            },
            ..FaultConfig::default()
        }
    }

    /// A configuration that injects only `category`, at `rate` — the
    /// building block of the chaos-vs-clean differential harness.
    pub fn only(category: FaultCategory, rate: f64) -> FaultConfig {
        let mut cfg = FaultConfig::none();
        cfg.rates.set_rate(category, rate);
        cfg
    }

    /// Whether any category has a positive rate.
    pub fn enabled(&self) -> bool {
        FaultCategory::ALL.iter().any(|&c| self.rates.rate(c) > 0.0)
    }
}

/// Per-category fault and recovery counts for one device run (or, after
/// [`FaultTally::merge`], for a whole fleet).
///
/// "Injected" counters record faults the plan actually delivered;
/// "recovery" counters record the graceful-degradation actions the
/// detector took in response. Silent faults (stale counters, truncated
/// samples) have no recovery counter — their cost is visible only in the
/// chaos-vs-clean differential.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTally {
    /// Counter read attempts that failed.
    pub counter_read_failures: u64,
    /// Retry attempts made after a failed read.
    pub counter_read_retries: u64,
    /// Reads salvaged by at least one retry.
    pub counter_reads_recovered: u64,
    /// Reads abandoned after the retry budget ran out.
    pub counter_reads_lost: u64,
    /// Stale counter snapshots served.
    pub stale_snapshots: u64,
    /// Stack samples dropped.
    pub samples_dropped: u64,
    /// Stack samples truncated.
    pub samples_truncated: u64,
    /// Sampler windows that started late.
    pub sampler_delays: u64,
    /// Timer deadlines that were jittered.
    pub clock_jitters: u64,
    /// S-Checker verdicts issued from a partial counter set.
    pub degraded_verdicts: u64,
    /// S-Checker evaluations abandoned because no counter read survived.
    pub checks_abandoned: u64,
    /// Diagnosis sessions aborted (and re-armed) for losing too many
    /// samples.
    pub sessions_aborted: u64,
}

impl FaultTally {
    /// Adds another tally into this one (associative and commutative, so
    /// fleet merges are order-independent).
    pub fn merge(&mut self, other: &FaultTally) {
        self.counter_read_failures += other.counter_read_failures;
        self.counter_read_retries += other.counter_read_retries;
        self.counter_reads_recovered += other.counter_reads_recovered;
        self.counter_reads_lost += other.counter_reads_lost;
        self.stale_snapshots += other.stale_snapshots;
        self.samples_dropped += other.samples_dropped;
        self.samples_truncated += other.samples_truncated;
        self.sampler_delays += other.sampler_delays;
        self.clock_jitters += other.clock_jitters;
        self.degraded_verdicts += other.degraded_verdicts;
        self.checks_abandoned += other.checks_abandoned;
        self.sessions_aborted += other.sessions_aborted;
    }

    /// Total faults injected across all categories.
    pub fn injected(&self) -> u64 {
        self.counter_read_failures
            + self.stale_snapshots
            + self.samples_dropped
            + self.samples_truncated
            + self.sampler_delays
            + self.clock_jitters
    }

    /// Total graceful-degradation actions taken in response.
    pub fn recovered(&self) -> u64 {
        self.counter_reads_recovered
            + self.degraded_verdicts
            + self.checks_abandoned
            + self.sessions_aborted
    }

    /// Whether nothing was injected or recovered.
    pub fn is_empty(&self) -> bool {
        *self == FaultTally::default()
    }
}

/// Derives the fault-plan seed of the job with stable index `job`.
///
/// Same SplitMix64 scramble as fleet device seeds but domain-separated
/// by a constant, so a job's fault schedule is independent of its
/// simulator stream while still being a pure function of
/// `(root_seed, job)`.
pub fn fault_seed(root_seed: u64, job: u64) -> u64 {
    let mut z = (root_seed ^ 0xFA17_5EED_0D15_EA5Eu64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(job.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-job fault schedule: a configuration, a private RNG stream,
/// and the running tally of what was injected and recovered.
///
/// Every injection-point method is a no-op (and draws nothing) when the
/// corresponding rate is zero, so a disabled plan is behaviorally
/// invisible.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
    /// Running fault/recovery counts. Public so the detector can record
    /// its recovery actions (degraded verdicts, aborted sessions) into
    /// the same ledger the injection points write.
    pub tally: FaultTally,
}

impl FaultPlan {
    /// Creates a plan with an explicit seed.
    pub fn new(cfg: FaultConfig, seed: u64) -> FaultPlan {
        FaultPlan {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            tally: FaultTally::default(),
        }
    }

    /// Creates the plan of fleet job `job` under `root_seed` — the
    /// deterministic derivation every chaos fleet uses.
    pub fn for_job(cfg: FaultConfig, root_seed: u64, job: u64) -> FaultPlan {
        FaultPlan::new(cfg, fault_seed(root_seed, job))
    }

    /// A plan that never injects anything.
    pub fn disabled() -> FaultPlan {
        FaultPlan::new(FaultConfig::none(), 0)
    }

    /// Whether any fault category is active.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The configuration this plan runs under.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Snapshot of the current tally.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    fn fires(&mut self, rate: f64) -> bool {
        // Zero-rate categories must not consume RNG state: a plan with a
        // category disabled produces the same schedule for the others.
        rate > 0.0 && self.rng.chance(rate)
    }

    /// Injection point: does this counter read attempt fail?
    pub fn counter_read_fails(&mut self) -> bool {
        if self.fires(self.cfg.rates.counter_read_failure) {
            self.tally.counter_read_failures += 1;
            true
        } else {
            false
        }
    }

    /// Injection point: scale factor for a stale counter snapshot, if
    /// this read is served stale. The factor is the fraction of the
    /// window the snapshot actually covered.
    pub fn stale_fraction(&mut self) -> Option<f64> {
        if self.fires(self.cfg.rates.stale_counter) {
            self.tally.stale_snapshots += 1;
            let missing = self.rng.uniform_f64(0.0, self.cfg.max_stale_fraction);
            Some(1.0 - missing)
        } else {
            None
        }
    }

    /// Injection point: is this stack sample dropped?
    pub fn drop_sample(&mut self) -> bool {
        if self.fires(self.cfg.rates.dropped_sample) {
            self.tally.samples_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Injection point: is this stack sample truncated?
    pub fn truncate_sample(&mut self) -> bool {
        if self.fires(self.cfg.rates.truncated_sample) {
            self.tally.samples_truncated += 1;
            true
        } else {
            false
        }
    }

    /// Injection point: extra start-up latency of a sampler window, if
    /// this one starts late.
    pub fn sampler_latency_ns(&mut self) -> Option<u64> {
        if self.fires(self.cfg.rates.sampler_latency) {
            self.tally.sampler_delays += 1;
            Some(
                self.rng
                    .uniform_u64(1, self.cfg.max_sampler_latency_ns.max(1)),
            )
        } else {
            None
        }
    }

    /// Injection point: skews a timer deadline against the monotonic
    /// clock, returning the (possibly unchanged) deadline.
    pub fn jitter_deadline(&mut self, at: SimTime) -> SimTime {
        if self.fires(self.cfg.rates.clock_jitter) {
            self.tally.clock_jitters += 1;
            let max = self.cfg.max_clock_jitter_ns.max(1);
            let magnitude = self.rng.uniform_u64(1, max);
            if self.rng.chance(0.5) {
                SimTime(at.0.saturating_add(magnitude))
            } else {
                SimTime(at.0.saturating_sub(magnitude))
            }
        } else {
            at
        }
    }
}

// ---------------------------------------------------------------------------
// Network faults (telemetry transport)
// ---------------------------------------------------------------------------

/// The kinds of fault the telemetry transport can suffer between a
/// device and the ingestion backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetFaultCategory {
    /// The connection drops before a frame is delivered; the uploader
    /// must reconnect and resend.
    ConnectionDrop,
    /// A frame is delivered late.
    DeliveryDelay,
    /// A frame is delivered twice; idempotent ingest must absorb it.
    DuplicateFrame,
}

impl NetFaultCategory {
    /// Every category, in declaration order.
    pub const ALL: [NetFaultCategory; 3] = [
        NetFaultCategory::ConnectionDrop,
        NetFaultCategory::DeliveryDelay,
        NetFaultCategory::DuplicateFrame,
    ];

    /// Stable kebab-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            NetFaultCategory::ConnectionDrop => "connection-drop",
            NetFaultCategory::DeliveryDelay => "delivery-delay",
            NetFaultCategory::DuplicateFrame => "duplicate-frame",
        }
    }
}

/// Per-category network fault injection probabilities, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetFaultRates {
    /// Probability that the connection drops before a batch is sent.
    pub connection_drop: f64,
    /// Probability that a batch is delivered late.
    pub delivery_delay: f64,
    /// Probability that a batch frame is sent twice.
    pub duplicate_frame: f64,
}

/// Network fault-injection configuration for the telemetry transport.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetFaultConfig {
    /// Per-category injection rates.
    pub rates: NetFaultRates,
    /// Maximum extra delivery delay, ns (kept small so chaos tests stay
    /// fast; the delay is actually slept by the uploader).
    pub max_delivery_delay_ns: u64,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        NetFaultConfig {
            rates: NetFaultRates::default(),
            max_delivery_delay_ns: 2_000_000, // 2 ms
        }
    }
}

impl NetFaultConfig {
    /// A configuration that injects nothing (the production default).
    pub fn none() -> NetFaultConfig {
        NetFaultConfig::default()
    }

    /// Chaos mode: every category injects at `rate` (clamped to
    /// `[0, 1]`).
    pub fn chaos(rate: f64) -> NetFaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        NetFaultConfig {
            rates: NetFaultRates {
                connection_drop: rate,
                delivery_delay: rate,
                duplicate_frame: rate,
            },
            ..NetFaultConfig::default()
        }
    }

    /// Whether any category has a positive rate.
    pub fn enabled(&self) -> bool {
        self.rates.connection_drop > 0.0
            || self.rates.delivery_delay > 0.0
            || self.rates.duplicate_frame > 0.0
    }
}

/// Per-category network fault and recovery counts for one uploader (or,
/// after [`NetFaultTally::merge`], for a whole fleet's telemetry path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetFaultTally {
    /// Connections dropped before a batch went out.
    pub connections_dropped: u64,
    /// Batch deliveries that were delayed.
    pub deliveries_delayed: u64,
    /// Batch frames deliberately sent twice.
    pub frames_duplicated: u64,
    /// Upload attempts repeated after a drop or a NACK.
    pub upload_retries: u64,
    /// Retryable NACKs received from the server. Protocol: the
    /// hd-telemetry server applies every upload and sends none, so this
    /// reads 0 against it.
    pub nacks_received: u64,
    /// Duplicate deliveries the server's idempotent ingest absorbed.
    pub duplicates_absorbed: u64,
}

impl NetFaultTally {
    /// Adds another tally into this one (associative and commutative).
    pub fn merge(&mut self, other: &NetFaultTally) {
        self.connections_dropped += other.connections_dropped;
        self.deliveries_delayed += other.deliveries_delayed;
        self.frames_duplicated += other.frames_duplicated;
        self.upload_retries += other.upload_retries;
        self.nacks_received += other.nacks_received;
        self.duplicates_absorbed += other.duplicates_absorbed;
    }

    /// Total network faults injected.
    pub fn injected(&self) -> u64 {
        self.connections_dropped + self.deliveries_delayed + self.frames_duplicated
    }

    /// Whether nothing was injected or recovered.
    pub fn is_empty(&self) -> bool {
        *self == NetFaultTally::default()
    }
}

/// Derives the network fault-plan seed of the uploader with stable
/// index `device` — the same SplitMix64 scramble as [`fault_seed`] but
/// domain-separated by a different constant, so transport faults are
/// independent of both the simulator stream and the monitoring fault
/// schedule.
pub fn net_fault_seed(root_seed: u64, device: u64) -> u64 {
    let mut z = (root_seed ^ 0x7E1E_C0DE_5EED_F00Du64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(device.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-uploader network fault schedule. All fault decisions for one
/// batch are drawn **before** the first send attempt, so the schedule
/// depends only on `(seed, batch sequence)` — never on server timing,
/// NACKs, or retry counts.
#[derive(Debug)]
pub struct NetFaultPlan {
    cfg: NetFaultConfig,
    rng: SimRng,
    /// Running fault/recovery counts. Public so the uploader can record
    /// its recovery actions (retries, NACKs) into the same ledger.
    pub tally: NetFaultTally,
}

impl NetFaultPlan {
    /// Creates a plan with an explicit seed.
    pub fn new(cfg: NetFaultConfig, seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            tally: NetFaultTally::default(),
        }
    }

    /// Creates the plan of the uploader with stable index `device`
    /// under `root_seed`.
    pub fn for_device(cfg: NetFaultConfig, root_seed: u64, device: u64) -> NetFaultPlan {
        NetFaultPlan::new(cfg, net_fault_seed(root_seed, device))
    }

    /// A plan that never injects anything.
    pub fn disabled() -> NetFaultPlan {
        NetFaultPlan::new(NetFaultConfig::none(), 0)
    }

    /// Whether any fault category is active.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The configuration this plan runs under.
    pub fn config(&self) -> &NetFaultConfig {
        &self.cfg
    }

    /// Snapshot of the current tally.
    pub fn tally(&self) -> NetFaultTally {
        self.tally
    }

    fn fires(&mut self, rate: f64) -> bool {
        // Zero-rate categories must not consume RNG state (see
        // `FaultPlan::fires`).
        rate > 0.0 && self.rng.chance(rate)
    }

    /// Draws every fault decision for the next batch. Called exactly
    /// once per batch, before the first send attempt.
    pub fn next_batch(&mut self) -> BatchFaults {
        let drop_connection = if self.fires(self.cfg.rates.connection_drop) {
            self.tally.connections_dropped += 1;
            true
        } else {
            false
        };
        let delay_ns = if self.fires(self.cfg.rates.delivery_delay) {
            self.tally.deliveries_delayed += 1;
            Some(
                self.rng
                    .uniform_u64(1, self.cfg.max_delivery_delay_ns.max(1)),
            )
        } else {
            None
        };
        let duplicate = if self.fires(self.cfg.rates.duplicate_frame) {
            self.tally.frames_duplicated += 1;
            true
        } else {
            false
        };
        BatchFaults {
            drop_connection,
            delay_ns,
            duplicate,
        }
    }
}

/// The fault decisions for one upload batch, drawn up front by
/// [`NetFaultPlan::next_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchFaults {
    /// Drop (and re-establish) the connection before sending.
    pub drop_connection: bool,
    /// Sleep this long before sending, if set.
    pub delay_ns: Option<u64>,
    /// Send the frame twice.
    pub duplicate: bool,
}

// ---------------------------------------------------------------------------
// Control-plane frame faults (hd-control transport)
// ---------------------------------------------------------------------------

/// The kinds of fault a control-plane frame can suffer between the
/// server and a device's `ControlAgent`. Mirrors [`NetFaultCategory`]
/// but lives in its own family: control traffic is low-rate and
/// bidirectional, and its chaos schedule must never perturb the upload
/// path's RNG streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CtrlFaultCategory {
    /// The frame is lost in flight; the sender must reconnect and
    /// resend.
    FrameLoss,
    /// The frame is delivered late.
    FrameDelay,
    /// The frame is delivered twice; control handling must be
    /// idempotent.
    FrameDuplicate,
}

impl CtrlFaultCategory {
    /// Every category, in declaration order.
    pub const ALL: [CtrlFaultCategory; 3] = [
        CtrlFaultCategory::FrameLoss,
        CtrlFaultCategory::FrameDelay,
        CtrlFaultCategory::FrameDuplicate,
    ];

    /// Stable kebab-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            CtrlFaultCategory::FrameLoss => "frame-loss",
            CtrlFaultCategory::FrameDelay => "frame-delay",
            CtrlFaultCategory::FrameDuplicate => "frame-duplicate",
        }
    }
}

/// Per-category control-frame fault probabilities, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CtrlFaultRates {
    /// Probability that a control frame is lost before delivery.
    pub frame_loss: f64,
    /// Probability that a control frame is delivered late.
    pub frame_delay: f64,
    /// Probability that a control frame is delivered twice.
    pub frame_duplicate: f64,
}

/// Control-frame fault-injection configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CtrlFaultConfig {
    /// Per-category injection rates.
    pub rates: CtrlFaultRates,
    /// Maximum extra delivery delay, ns (actually slept by the control
    /// client, so kept small).
    pub max_frame_delay_ns: u64,
}

impl Default for CtrlFaultConfig {
    fn default() -> Self {
        CtrlFaultConfig {
            rates: CtrlFaultRates::default(),
            max_frame_delay_ns: 2_000_000, // 2 ms
        }
    }
}

impl CtrlFaultConfig {
    /// A configuration that injects nothing (the production default).
    pub fn none() -> CtrlFaultConfig {
        CtrlFaultConfig::default()
    }

    /// Chaos mode: every category injects at `rate` (clamped to
    /// `[0, 1]`).
    pub fn chaos(rate: f64) -> CtrlFaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        CtrlFaultConfig {
            rates: CtrlFaultRates {
                frame_loss: rate,
                frame_delay: rate,
                frame_duplicate: rate,
            },
            ..CtrlFaultConfig::default()
        }
    }

    /// A configuration that injects only `category`, at `rate`.
    pub fn only(category: CtrlFaultCategory, rate: f64) -> CtrlFaultConfig {
        let rate = rate.clamp(0.0, 1.0);
        let mut cfg = CtrlFaultConfig::none();
        match category {
            CtrlFaultCategory::FrameLoss => cfg.rates.frame_loss = rate,
            CtrlFaultCategory::FrameDelay => cfg.rates.frame_delay = rate,
            CtrlFaultCategory::FrameDuplicate => cfg.rates.frame_duplicate = rate,
        }
        cfg
    }

    /// Whether any category has a positive rate.
    pub fn enabled(&self) -> bool {
        self.rates.frame_loss > 0.0
            || self.rates.frame_delay > 0.0
            || self.rates.frame_duplicate > 0.0
    }
}

/// Control-frame fault and recovery counts for one control session (or,
/// after [`CtrlFaultTally::merge`], a whole rollout).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CtrlFaultTally {
    /// Control frames lost before delivery (forcing a resend).
    pub frames_lost: u64,
    /// Control frames delivered late.
    pub frames_delayed: u64,
    /// Control frames deliberately delivered twice.
    pub frames_duplicated: u64,
    /// Resends after a lost frame.
    pub resends: u64,
    /// Duplicate deliveries the idempotent handler absorbed.
    pub duplicates_absorbed: u64,
}

impl CtrlFaultTally {
    /// Adds another tally into this one (associative and commutative).
    pub fn merge(&mut self, other: &CtrlFaultTally) {
        self.frames_lost += other.frames_lost;
        self.frames_delayed += other.frames_delayed;
        self.frames_duplicated += other.frames_duplicated;
        self.resends += other.resends;
        self.duplicates_absorbed += other.duplicates_absorbed;
    }

    /// Total control-frame faults injected.
    pub fn injected(&self) -> u64 {
        self.frames_lost + self.frames_delayed + self.frames_duplicated
    }

    /// Whether nothing was injected or recovered.
    pub fn is_empty(&self) -> bool {
        *self == CtrlFaultTally::default()
    }
}

/// Derives the control-frame fault seed of the session with stable
/// index `device` — the same SplitMix64 scramble as [`net_fault_seed`]
/// under yet another domain constant, so control chaos is independent of
/// the monitoring, transport, and node-crash streams.
pub fn ctrl_fault_seed(root_seed: u64, device: u64) -> u64 {
    let mut z = (root_seed ^ 0xC0DE_C0DE_5EED_0FF1u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(device.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-session control-frame fault schedule. All decisions for one
/// frame are drawn **before** the first delivery attempt, so the
/// schedule depends only on `(seed, frame sequence)` — never on server
/// timing or retries.
#[derive(Debug)]
pub struct CtrlFaultPlan {
    cfg: CtrlFaultConfig,
    rng: SimRng,
    /// Running fault/recovery counts. Public so the control client can
    /// record its recovery actions (resends, absorbed duplicates) into
    /// the same ledger.
    pub tally: CtrlFaultTally,
}

impl CtrlFaultPlan {
    /// Creates a plan with an explicit seed.
    pub fn new(cfg: CtrlFaultConfig, seed: u64) -> CtrlFaultPlan {
        CtrlFaultPlan {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            tally: CtrlFaultTally::default(),
        }
    }

    /// Creates the plan of the control session with stable index
    /// `device` under `root_seed`.
    pub fn for_device(cfg: CtrlFaultConfig, root_seed: u64, device: u64) -> CtrlFaultPlan {
        CtrlFaultPlan::new(cfg, ctrl_fault_seed(root_seed, device))
    }

    /// A plan that never injects anything.
    pub fn disabled() -> CtrlFaultPlan {
        CtrlFaultPlan::new(CtrlFaultConfig::none(), 0)
    }

    /// Whether any fault category is active.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The configuration this plan runs under.
    pub fn config(&self) -> &CtrlFaultConfig {
        &self.cfg
    }

    /// Snapshot of the current tally.
    pub fn tally(&self) -> CtrlFaultTally {
        self.tally
    }

    fn fires(&mut self, rate: f64) -> bool {
        // Zero-rate categories must not consume RNG state (see
        // `FaultPlan::fires`).
        rate > 0.0 && self.rng.chance(rate)
    }

    /// Draws every fault decision for the next control frame. Called
    /// exactly once per frame, before the first delivery attempt.
    pub fn next_frame(&mut self) -> FrameFaults {
        let drop = if self.fires(self.cfg.rates.frame_loss) {
            self.tally.frames_lost += 1;
            true
        } else {
            false
        };
        let delay_ns = if self.fires(self.cfg.rates.frame_delay) {
            self.tally.frames_delayed += 1;
            Some(self.rng.uniform_u64(1, self.cfg.max_frame_delay_ns.max(1)))
        } else {
            None
        };
        let duplicate = if self.fires(self.cfg.rates.frame_duplicate) {
            self.tally.frames_duplicated += 1;
            true
        } else {
            false
        };
        FrameFaults {
            drop,
            delay_ns,
            duplicate,
        }
    }
}

/// The fault decisions for one control frame, drawn up front by
/// [`CtrlFaultPlan::next_frame`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFaults {
    /// Lose the frame (and the connection) before delivery; the sender
    /// resends.
    pub drop: bool,
    /// Sleep this long before delivering, if set.
    pub delay_ns: Option<u64>,
    /// Deliver the frame twice.
    pub duplicate: bool,
}

// ---------------------------------------------------------------------------
// Node crashes (telemetry cluster chaos)
// ---------------------------------------------------------------------------

/// Stable kebab-case name of the node-crash fault category. It lives
/// outside [`NetFaultCategory`]/[`NetFaultTally`] on purpose: those
/// serialize into pinned chaos fixtures, and node crashes are a
/// cluster-harness fault (a whole server dies and restarts from its
/// WAL), not a per-uploader transport fault.
pub const NODE_CRASH_CATEGORY: &str = "node-crash";

/// Derives the node-crash schedule seed for a cluster — the same
/// SplitMix64 scramble as [`net_fault_seed`] under yet another domain
/// constant, so crash schedules are independent of every transport and
/// monitoring fault stream (the uploaders' RNG draws must not shift
/// when crashes are enabled).
pub fn node_crash_seed(root_seed: u64, nodes: u64) -> u64 {
    let mut z = (root_seed ^ 0xC7A5_110D_E5EE_DA0Bu64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(nodes.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic node-crash schedule for a cluster run whose uploads
/// proceed in waves. Every decision — whether a crash follows a wave,
/// and which node dies — is drawn up front at construction, so the
/// schedule is a pure function of `(root_seed, nodes, waves, rate)` and
/// can never be perturbed by upload timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCrashPlan {
    /// `crashes[w]` = node killed (and restarted) after wave `w`.
    crashes: Vec<Option<usize>>,
}

impl NodeCrashPlan {
    /// Draws the schedule: after each of the first `waves - 1` waves, a
    /// crash fires with probability `rate` and kills a uniformly chosen
    /// node. Nothing crashes after the final wave (there would be no
    /// later upload to observe the recovery).
    pub fn for_cluster(rate: f64, nodes: usize, waves: usize, root_seed: u64) -> NodeCrashPlan {
        let rate = rate.clamp(0.0, 1.0);
        let mut rng = SimRng::seed_from_u64(node_crash_seed(root_seed, nodes as u64));
        let mut crashes = vec![None; waves];
        if nodes > 0 && waves > 1 {
            for slot in crashes.iter_mut().take(waves - 1) {
                // Zero-rate draws consume no RNG state (same contract
                // as the other fault plans).
                if rate > 0.0 && rng.chance(rate) {
                    *slot = Some(rng.uniform_u64(0, nodes as u64 - 1) as usize);
                }
            }
        }
        NodeCrashPlan { crashes }
    }

    /// A pinned schedule: kill exactly `node` after wave `wave` —
    /// what the CI cluster smoke uses so the log always shows a real
    /// kill-and-restart.
    pub fn pinned(waves: usize, wave: usize, node: usize) -> NodeCrashPlan {
        let mut crashes = vec![None; waves];
        if wave < waves {
            crashes[wave] = Some(node);
        }
        NodeCrashPlan { crashes }
    }

    /// A schedule that never crashes anything.
    pub fn none(waves: usize) -> NodeCrashPlan {
        NodeCrashPlan {
            crashes: vec![None; waves],
        }
    }

    /// Number of upload waves the schedule spans.
    pub fn waves(&self) -> usize {
        self.crashes.len()
    }

    /// The node to kill (and restart) after wave `wave`, if any.
    pub fn crash_after(&self, wave: usize) -> Option<usize> {
        self.crashes.get(wave).copied().flatten()
    }

    /// Total crashes the schedule will inject.
    pub fn crash_count(&self) -> usize {
        self.crashes.iter().filter(|c| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives every injection point once and returns a fingerprint of
    /// the decisions.
    fn drive(plan: &mut FaultPlan, rounds: usize) -> Vec<u64> {
        let mut fp = Vec::new();
        for i in 0..rounds {
            fp.push(plan.counter_read_fails() as u64);
            fp.push(plan.stale_fraction().map(|f| f.to_bits()).unwrap_or(0));
            fp.push(plan.drop_sample() as u64);
            fp.push(plan.truncate_sample() as u64);
            fp.push(plan.sampler_latency_ns().unwrap_or(0));
            fp.push(plan.jitter_deadline(SimTime(i as u64 * 1_000_000)).0);
        }
        fp
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::for_job(FaultConfig::chaos(0.3), 7, 4);
        let mut b = FaultPlan::for_job(FaultConfig::chaos(0.3), 7, 4);
        assert_eq!(drive(&mut a, 200), drive(&mut b, 200));
        assert_eq!(a.tally(), b.tally());
    }

    #[test]
    fn different_jobs_differ() {
        let mut a = FaultPlan::for_job(FaultConfig::chaos(0.5), 7, 0);
        let mut b = FaultPlan::for_job(FaultConfig::chaos(0.5), 7, 1);
        assert_ne!(drive(&mut a, 200), drive(&mut b, 200));
    }

    #[test]
    fn disabled_plan_is_inert() {
        let mut plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for _ in 0..100 {
            assert!(!plan.counter_read_fails());
            assert!(plan.stale_fraction().is_none());
            assert!(!plan.drop_sample());
            assert!(!plan.truncate_sample());
            assert!(plan.sampler_latency_ns().is_none());
            assert_eq!(plan.jitter_deadline(SimTime(42)), SimTime(42));
        }
        assert!(plan.tally().is_empty());
    }

    #[test]
    fn zero_rate_category_does_not_perturb_others() {
        // Disabling one category must leave the schedule of the others
        // untouched (no RNG draws on the zero-rate path).
        let mut full = FaultConfig::chaos(0.4);
        full.rates.stale_counter = 0.0;
        let mut only = FaultConfig::none();
        only.rates.counter_read_failure = 0.4;
        let mut a = FaultPlan::new(full, 99);
        let mut b = FaultPlan::new(only, 99);
        let da: Vec<bool> = (0..300).map(|_| a.counter_read_fails()).collect();
        let db: Vec<bool> = (0..300).map(|_| b.counter_read_fails()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn rates_are_clamped() {
        let cfg = FaultConfig::chaos(7.0);
        assert_eq!(cfg.rates.counter_read_failure, 1.0);
        let mut plan = FaultPlan::new(cfg, 1);
        assert!(plan.counter_read_fails());
        let cfg = FaultConfig::only(FaultCategory::DroppedSample, -3.0);
        assert!(!cfg.enabled());
    }

    #[test]
    fn only_activates_a_single_category() {
        for &cat in &FaultCategory::ALL {
            let cfg = FaultConfig::only(cat, 0.5);
            assert!(cfg.enabled());
            for &other in &FaultCategory::ALL {
                let expect = if other == cat { 0.5 } else { 0.0 };
                assert_eq!(cfg.rates.rate(other), expect, "{}", other.name());
            }
        }
    }

    #[test]
    fn stale_fraction_stays_in_band() {
        let mut plan = FaultPlan::new(FaultConfig::chaos(1.0), 3);
        for _ in 0..500 {
            let f = plan.stale_fraction().expect("rate 1.0 always fires");
            assert!((0.4..=1.0).contains(&f), "fraction {f}");
        }
    }

    #[test]
    fn jitter_stays_within_configured_bound() {
        let mut plan = FaultPlan::new(FaultConfig::chaos(1.0), 5);
        let base = SimTime(1_000_000_000);
        for _ in 0..500 {
            let at = plan.jitter_deadline(base);
            let skew = at.0.abs_diff(base.0);
            assert!((1..=4_000_000).contains(&skew), "skew {skew}");
        }
    }

    #[test]
    fn tally_merge_is_commutative_and_identity_preserving() {
        let mut a = FaultPlan::new(FaultConfig::chaos(0.7), 11);
        let mut b = FaultPlan::new(FaultConfig::chaos(0.7), 12);
        drive(&mut a, 50);
        drive(&mut b, 50);
        let (ta, tb) = (a.tally(), b.tally());
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        assert_eq!(ab, ba);
        let mut with_id = ta;
        with_id.merge(&FaultTally::default());
        assert_eq!(with_id, ta);
        assert!(ab.injected() >= ta.injected());
    }

    #[test]
    fn fault_seed_is_domain_separated_from_device_seed() {
        // Must differ from the undomain-separated SplitMix64 the fleet
        // uses for device seeds, and be stable and collision-free.
        assert_eq!(fault_seed(42, 3), fault_seed(42, 3));
        assert_ne!(fault_seed(42, 3), fault_seed(42, 4));
        assert_ne!(fault_seed(42, 3), fault_seed(43, 3));
        let seeds: std::collections::HashSet<u64> = (0..1_000).map(|i| fault_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000);
    }

    #[test]
    fn category_names_are_stable() {
        let names: Vec<&str> = FaultCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec![
                "counter-read",
                "stale-counter",
                "dropped-sample",
                "truncated-sample",
                "sampler-latency",
                "clock-jitter"
            ]
        );
    }

    #[test]
    fn net_plan_same_seed_same_schedule() {
        let mut a = NetFaultPlan::for_device(NetFaultConfig::chaos(0.3), 7, 4);
        let mut b = NetFaultPlan::for_device(NetFaultConfig::chaos(0.3), 7, 4);
        let fa: Vec<BatchFaults> = (0..200).map(|_| a.next_batch()).collect();
        let fb: Vec<BatchFaults> = (0..200).map(|_| b.next_batch()).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.tally(), b.tally());
        let mut c = NetFaultPlan::for_device(NetFaultConfig::chaos(0.3), 7, 5);
        let fc: Vec<BatchFaults> = (0..200).map(|_| c.next_batch()).collect();
        assert_ne!(fa, fc, "different devices must get different schedules");
    }

    #[test]
    fn net_plan_disabled_is_inert() {
        let mut plan = NetFaultPlan::disabled();
        assert!(!plan.is_enabled());
        for _ in 0..100 {
            assert_eq!(plan.next_batch(), BatchFaults::default());
        }
        assert!(plan.tally().is_empty());
    }

    #[test]
    fn net_delay_stays_within_configured_bound() {
        let mut plan = NetFaultPlan::new(NetFaultConfig::chaos(1.0), 9);
        for _ in 0..300 {
            let faults = plan.next_batch();
            assert!(faults.drop_connection);
            assert!(faults.duplicate);
            let delay = faults.delay_ns.expect("rate 1.0 always fires");
            assert!((1..=2_000_000).contains(&delay), "delay {delay}");
        }
        assert_eq!(plan.tally().injected(), 900);
    }

    #[test]
    fn net_tally_merge_is_commutative_and_identity_preserving() {
        let mut a = NetFaultPlan::new(NetFaultConfig::chaos(0.7), 11);
        let mut b = NetFaultPlan::new(NetFaultConfig::chaos(0.7), 12);
        for _ in 0..50 {
            a.next_batch();
            b.next_batch();
        }
        let (ta, tb) = (a.tally(), b.tally());
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        assert_eq!(ab, ba);
        let mut with_id = ta;
        with_id.merge(&NetFaultTally::default());
        assert_eq!(with_id, ta);
    }

    #[test]
    fn net_fault_seed_is_domain_separated() {
        assert_eq!(net_fault_seed(42, 3), net_fault_seed(42, 3));
        assert_ne!(net_fault_seed(42, 3), net_fault_seed(42, 4));
        assert_ne!(net_fault_seed(42, 3), fault_seed(42, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..1_000).map(|i| net_fault_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000);
    }

    #[test]
    fn net_category_names_are_stable() {
        let names: Vec<&str> = NetFaultCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec!["connection-drop", "delivery-delay", "duplicate-frame"]
        );
    }

    #[test]
    fn ctrl_plan_same_seed_same_schedule() {
        let mut a = CtrlFaultPlan::for_device(CtrlFaultConfig::chaos(0.3), 7, 4);
        let mut b = CtrlFaultPlan::for_device(CtrlFaultConfig::chaos(0.3), 7, 4);
        let fa: Vec<FrameFaults> = (0..200).map(|_| a.next_frame()).collect();
        let fb: Vec<FrameFaults> = (0..200).map(|_| b.next_frame()).collect();
        assert_eq!(fa, fb);
        assert_eq!(a.tally(), b.tally());
        let mut c = CtrlFaultPlan::for_device(CtrlFaultConfig::chaos(0.3), 7, 5);
        let fc: Vec<FrameFaults> = (0..200).map(|_| c.next_frame()).collect();
        assert_ne!(fa, fc, "different devices must get different schedules");
    }

    #[test]
    fn ctrl_plan_disabled_is_inert() {
        let mut plan = CtrlFaultPlan::disabled();
        assert!(!plan.is_enabled());
        for _ in 0..100 {
            assert_eq!(plan.next_frame(), FrameFaults::default());
        }
        assert!(plan.tally().is_empty());
    }

    #[test]
    fn ctrl_delay_stays_within_configured_bound() {
        let mut plan = CtrlFaultPlan::new(CtrlFaultConfig::chaos(1.0), 9);
        for _ in 0..300 {
            let faults = plan.next_frame();
            assert!(faults.drop);
            assert!(faults.duplicate);
            let delay = faults.delay_ns.expect("rate 1.0 always fires");
            assert!((1..=2_000_000).contains(&delay), "delay {delay}");
        }
        assert_eq!(plan.tally().injected(), 900);
    }

    #[test]
    fn ctrl_only_activates_a_single_category() {
        for &cat in &CtrlFaultCategory::ALL {
            let cfg = CtrlFaultConfig::only(cat, 0.5);
            assert!(cfg.enabled());
            let rates = [
                (CtrlFaultCategory::FrameLoss, cfg.rates.frame_loss),
                (CtrlFaultCategory::FrameDelay, cfg.rates.frame_delay),
                (CtrlFaultCategory::FrameDuplicate, cfg.rates.frame_duplicate),
            ];
            for (other, rate) in rates {
                let expect = if other == cat { 0.5 } else { 0.0 };
                assert_eq!(rate, expect, "{}", other.name());
            }
        }
    }

    #[test]
    fn ctrl_tally_merge_is_commutative_and_identity_preserving() {
        let mut a = CtrlFaultPlan::new(CtrlFaultConfig::chaos(0.7), 11);
        let mut b = CtrlFaultPlan::new(CtrlFaultConfig::chaos(0.7), 12);
        for _ in 0..50 {
            a.next_frame();
            b.next_frame();
        }
        let (ta, tb) = (a.tally(), b.tally());
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        assert_eq!(ab, ba);
        let mut with_id = ta;
        with_id.merge(&CtrlFaultTally::default());
        assert_eq!(with_id, ta);
    }

    #[test]
    fn ctrl_fault_seed_is_domain_separated() {
        assert_eq!(ctrl_fault_seed(42, 3), ctrl_fault_seed(42, 3));
        assert_ne!(ctrl_fault_seed(42, 3), ctrl_fault_seed(42, 4));
        assert_ne!(ctrl_fault_seed(42, 3), net_fault_seed(42, 3));
        assert_ne!(ctrl_fault_seed(42, 3), fault_seed(42, 3));
        assert_ne!(ctrl_fault_seed(42, 3), node_crash_seed(42, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..1_000).map(|i| ctrl_fault_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1_000);
    }

    #[test]
    fn ctrl_category_names_are_stable() {
        let names: Vec<&str> = CtrlFaultCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["frame-loss", "frame-delay", "frame-duplicate"]);
    }

    #[test]
    fn node_crash_plan_is_deterministic_and_bounded() {
        let a = NodeCrashPlan::for_cluster(0.8, 3, 5, 99);
        let b = NodeCrashPlan::for_cluster(0.8, 3, 5, 99);
        assert_eq!(a, b);
        assert_eq!(a.waves(), 5);
        // Never a crash after the final wave; targets in range.
        assert_eq!(a.crash_after(4), None);
        for w in 0..5 {
            if let Some(node) = a.crash_after(w) {
                assert!(node < 3);
            }
        }
        // rate = 1 crashes after every non-final wave.
        let always = NodeCrashPlan::for_cluster(1.0, 3, 4, 7);
        assert_eq!(always.crash_count(), 3);
        // rate = 0 never crashes.
        assert_eq!(NodeCrashPlan::for_cluster(0.0, 3, 4, 7).crash_count(), 0);
        assert_eq!(NodeCrashPlan::none(4).crash_count(), 0);
    }

    #[test]
    fn node_crash_seed_is_domain_separated_from_net_faults() {
        assert_eq!(node_crash_seed(42, 3), node_crash_seed(42, 3));
        assert_ne!(node_crash_seed(42, 3), net_fault_seed(42, 3));
        assert_ne!(node_crash_seed(42, 3), fault_seed(42, 3));
    }

    #[test]
    fn pinned_crash_schedule_fires_exactly_once() {
        let plan = NodeCrashPlan::pinned(3, 1, 2);
        assert_eq!(plan.crash_after(0), None);
        assert_eq!(plan.crash_after(1), Some(2));
        assert_eq!(plan.crash_after(2), None);
        assert_eq!(plan.crash_count(), 1);
        assert_eq!(NODE_CRASH_CATEGORY, "node-crash");
    }
}
