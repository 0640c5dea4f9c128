//! Scheduler and runtime edge cases that unit tests don't reach.

use std::cell::RefCell;
use std::rc::Rc;

use hd_simrt::{
    ActionInfo, ActionRequest, ActionUid, FrameTable, HwEvent, MemProfile, MessageInfo, Probe,
    ProbeCtx, SimConfig, SimTime, Simulator, Step, ThreadId, TimelineRecorder, MILLIS,
};

fn table_with_frames() -> (FrameTable, hd_simrt::FrameId) {
    let mut t = FrameTable::new();
    let f = t.intern_new("edge.App.handler", "App.java", 1);
    (t, f)
}

fn cpu(ms: u64) -> Step {
    Step::Cpu {
        ns: ms * MILLIS,
        profile: MemProfile::ui(),
    }
}

#[test]
fn single_core_serializes_main_and_render() {
    // On one core the render thread can only drain frames when the main
    // thread is off-CPU, so the action's end stretches past main+render
    // work combined.
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(
        SimConfig {
            cores: 1,
            ..SimConfig::default()
        },
        t,
    );
    sim.schedule_action(
        SimTime::from_ms(1),
        ActionRequest {
            uid: ActionUid(1),
            name: "serial".into(),
            events: vec![vec![
                Step::Push(f),
                cpu(50),
                Step::PostRender {
                    frames: 10,
                    frame_ns: 4 * MILLIS,
                },
                cpu(30),
                Step::Pop,
            ]],
        },
    );
    let summary = sim.run();
    assert!(!summary.truncated);
    let rec = &sim.records()[0];
    // 80 ms main + 40 ms render must fit within the action window.
    assert!(rec.ended - rec.began >= 120 * MILLIS);
    // Render work ran despite the contention.
    assert!(sim.thread_counter(sim.render_tid(), HwEvent::TaskClock) >= (40 * MILLIS) as f64);
}

#[test]
fn worker_pool_handles_more_tasks_than_workers() {
    // Four offloaded blocking tasks over two workers: everything
    // completes and the main thread stays responsive.
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(SimConfig::default(), t);
    let worker_task = vec![Step::Io { ns: 120 * MILLIS }, cpu(10)];
    sim.schedule_action(
        SimTime::from_ms(1),
        ActionRequest {
            uid: ActionUid(1),
            name: "offload-burst".into(),
            events: vec![vec![
                Step::Push(f),
                Step::PostWorker(worker_task.clone()),
                Step::PostWorker(worker_task.clone()),
                Step::PostWorker(worker_task.clone()),
                Step::PostWorker(worker_task),
                cpu(20),
                Step::Pop,
            ]],
        },
    );
    let summary = sim.run();
    assert!(!summary.truncated, "worker backlog must drain");
    assert!(sim.records()[0].max_response_ns() < 100 * MILLIS);
    // All four tasks ran: worker CPU totals 4 × 10 ms.
    let worker_cpu: f64 = (0..2)
        .map(|i| {
            sim.thread_counter(
                hd_simrt::ThreadId(sim.main_tid().0 + 2 + i),
                HwEvent::TaskClock,
            )
        })
        .sum();
    assert!((worker_cpu - (40 * MILLIS) as f64).abs() < 1e3);
}

#[test]
fn zero_and_tiny_durations_are_harmless() {
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(SimConfig::default(), t);
    sim.schedule_action(
        SimTime::from_ms(1),
        ActionRequest {
            uid: ActionUid(1),
            name: "tiny".into(),
            events: vec![vec![
                Step::Push(f),
                Step::Cpu {
                    ns: 0,
                    profile: MemProfile::ui(),
                },
                Step::Io { ns: 1 },
                Step::Cpu {
                    ns: 1,
                    profile: MemProfile::ui(),
                },
                Step::PostRender {
                    frames: 0,
                    frame_ns: 4 * MILLIS,
                },
                Step::Pop,
            ]],
        },
    );
    let summary = sim.run();
    assert_eq!(summary.actions_completed, 1);
    assert!(sim.records()[0].max_response_ns() < 5 * MILLIS);
}

#[test]
fn back_to_back_actions_queue_fifo() {
    // Ten actions posted at the same instant execute in posting order.
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(SimConfig::default(), t);
    let (rec, out) = TimelineRecorder::new();
    sim.add_probe(Box::new(rec));
    for i in 0..10u64 {
        sim.schedule_action(
            SimTime::from_ms(5),
            ActionRequest {
                uid: ActionUid(i),
                name: format!("burst {i}"),
                events: vec![vec![Step::Push(f), cpu(8), Step::Pop]],
            },
        );
    }
    let summary = sim.run();
    assert_eq!(summary.actions_completed, 10);
    let timeline = out.borrow();
    for (i, d) in timeline.dispatches.iter().enumerate() {
        assert_eq!(d.uid, ActionUid(i as u64), "out of order at {i}");
        if i > 0 {
            assert!(d.began >= timeline.dispatches[i - 1].ended);
        }
    }
}

#[test]
fn probe_timer_in_the_past_fires_immediately_not_never() {
    struct PastTimer {
        fired: Rc<RefCell<bool>>,
    }
    impl Probe for PastTimer {
        fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
            // Deliberately set a timer at t=0, far in the past.
            ctx.set_timer(SimTime::ZERO, 9);
        }
        fn on_timer(&mut self, _ctx: &mut ProbeCtx<'_>, token: u64) {
            assert_eq!(token, 9);
            *self.fired.borrow_mut() = true;
        }
    }
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(SimConfig::default(), t);
    let fired = Rc::new(RefCell::new(false));
    sim.add_probe(Box::new(PastTimer {
        fired: fired.clone(),
    }));
    sim.schedule_action(
        SimTime::from_ms(50),
        ActionRequest {
            uid: ActionUid(1),
            name: "t".into(),
            events: vec![vec![Step::Push(f), cpu(5), Step::Pop]],
        },
    );
    sim.run();
    assert!(*fired.borrow(), "past-dated timer must be clamped to now");
}

#[test]
fn action_at_time_zero_works() {
    let (t, f) = table_with_frames();
    let mut sim = Simulator::new(SimConfig::default(), t);
    sim.schedule_action(
        SimTime::ZERO,
        ActionRequest {
            uid: ActionUid(1),
            name: "boot".into(),
            events: vec![vec![Step::Push(f), cpu(12), Step::Pop]],
        },
    );
    let summary = sim.run();
    assert_eq!(summary.actions_completed, 1);
    assert!(sim.records()[0].began.as_ns() <= MILLIS);
}

#[test]
fn deep_nested_stacks_survive_sampling() {
    // A 40-frame-deep call chain: samples capture the full depth.
    struct DepthProbe {
        max_depth: Rc<RefCell<usize>>,
    }
    impl Probe for DepthProbe {
        fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &MessageInfo) {
            ctx.set_timer(ctx.now() + 10 * MILLIS, 1);
        }
        fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, _token: u64) {
            let d = ctx.main_stack().len();
            let mut m = self.max_depth.borrow_mut();
            if d > *m {
                *m = d;
            }
        }
    }
    let mut t = FrameTable::new();
    let mut steps = Vec::new();
    for i in 0..40 {
        steps.push(Step::Push(t.intern_new(
            &format!("deep.Chain.level{i}"),
            "Chain.java",
            i,
        )));
    }
    steps.push(cpu(30));
    for _ in 0..40 {
        steps.push(Step::Pop);
    }
    let mut sim = Simulator::new(SimConfig::default(), t);
    let max_depth = Rc::new(RefCell::new(0));
    sim.add_probe(Box::new(DepthProbe {
        max_depth: max_depth.clone(),
    }));
    sim.schedule_action(
        SimTime::from_ms(1),
        ActionRequest {
            uid: ActionUid(1),
            name: "deep".into(),
            events: vec![steps],
        },
    );
    sim.run();
    assert_eq!(*max_depth.borrow(), 40);
}

#[test]
fn preemption_rate_is_invariant_to_core_count() {
    // Device housekeeping is modeled as one pinned system thread per
    // core, so a busy thread is preempted at the same per-CPU-time rate
    // whichever core it lands on: the context-switch signal the
    // S-Checker relies on does not depend on the device's core count
    // (the paper's cross-device generality claim, Section 3.3.1).
    let run = |cores: usize| {
        let mut table = FrameTable::new();
        let f = table.intern_new("edge.App.h", "App.java", 1);
        let mut sim = Simulator::new(
            SimConfig {
                cores,
                ..SimConfig::default()
            },
            table,
        );
        sim.schedule_action(
            SimTime::from_ms(1),
            ActionRequest {
                uid: ActionUid(1),
                name: "busy".into(),
                events: vec![vec![
                    Step::Push(f),
                    Step::Cpu {
                        ns: 300 * MILLIS,
                        profile: MemProfile::compute(),
                    },
                    Step::Pop,
                ]],
            },
        );
        sim.run();
        (
            sim.thread_counter(sim.main_tid(), HwEvent::ContextSwitches),
            sim.thread_counter(sim.main_tid(), HwEvent::CpuMigrations),
        )
    };
    let (cs2, _mig2) = run(2);
    let (cs8, _mig8) = run(8);
    let ratio = cs8 / cs2;
    assert!(
        (0.7..1.3).contains(&ratio),
        "cs rate should be core-count invariant: 2-core {cs2}, 8-core {cs8}"
    );
    // And there is real preemption happening at all (not idle).
    assert!(cs2 > 20.0, "cs2 = {cs2}");
}

/// The kworker threads: numbered after main, render and the app's
/// workers, one per core, before any executor thread.
fn kworkers(cfg: &SimConfig) -> Vec<ThreadId> {
    (0..cfg.cores)
        .map(|c| ThreadId(2 + cfg.workers + c))
        .collect()
}

/// Reads the kernel counters of every kworker, checking that each bank
/// is a kworker's: kernel events only.
fn kworker_words(ctx: &mut ProbeCtx<'_>, kworkers: &[ThreadId]) -> Vec<u64> {
    let mut words = Vec::new();
    for &k in kworkers {
        assert_eq!(ctx.counter(k, HwEvent::Instructions), 0.0, "{k:?}");
        for event in [
            HwEvent::TaskClock,
            HwEvent::CpuClock,
            HwEvent::ContextSwitches,
        ] {
            words.push(ctx.counter(k, event).to_bits());
        }
    }
    words
}

/// Keeps a probe timer armed from the first action's begin through
/// `until` (the last arrival), so the heap is never empty and the idle
/// loop never runs: every gap fires its pulses one event at a time. It
/// touches no counter and no random stream.
struct KeepAlive {
    until: SimTime,
    armed: bool,
}

impl KeepAlive {
    fn arm(&self, ctx: &mut ProbeCtx<'_>) {
        if ctx.now() < self.until {
            ctx.set_timer((ctx.now() + 50 * MILLIS).min(self.until), 0);
        }
    }
}

impl Probe for KeepAlive {
    fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &ActionInfo) {
        if !self.armed {
            self.armed = true;
            self.arm(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, _token: u64) {
        self.arm(ctx);
    }
}

#[test]
fn idle_gaps_keep_the_pulse_schedule() {
    // Between actions only the per-core system pulses run, and the idle
    // loop advances them. Each case runs twice: as is, and with a
    // `KeepAlive` probe that keeps the idle loop off through every gap.
    // At each action's begin the probe records where the gap left the
    // clock, one draw of the world stream (it moves if a gap consumed a
    // draw), main's kernel counters and every kworker's; after the run,
    // main's whole bank, the kworkers' counters and the run summary. The
    // two runs must agree on all of it.
    struct GapProbe {
        kworkers: Vec<ThreadId>,
        words: Rc<RefCell<Vec<u64>>>,
    }
    impl Probe for GapProbe {
        fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &ActionInfo) {
            let main = ctx.main_tid();
            let mut words = vec![
                ctx.now().as_ns(),
                ctx.jitter(0.5).to_bits(),
                ctx.counter(main, HwEvent::ContextSwitches).to_bits(),
                ctx.counter(main, HwEvent::TaskClock).to_bits(),
            ];
            words.extend(kworker_words(ctx, &self.kworkers));
            self.words.borrow_mut().extend(words);
        }
    }
    let run = |cores: usize, seed: u64, keep_alive: bool| {
        let mut t = FrameTable::new();
        let f = t.intern_new("edge.App.onClick", "App.java", 1);
        let g = t.intern_new("edge.Db.query", "Db.java", 2);
        let cfg = SimConfig {
            cores,
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, t);
        let executor = sim.add_executor("SerialExecutor", 1) as u32;
        let task = |io_ms: u64| {
            vec![
                Step::Push(g),
                Step::Io { ns: io_ms * MILLIS },
                cpu(5),
                Step::Pop,
            ]
        };
        // The boot action at 0 arms `KeepAlive` before the first gap.
        let actions = [
            (0, vec![Step::Push(f), cpu(1), Step::Pop]),
            (1_000, vec![Step::Push(f), cpu(40), Step::Pop]),
            (
                2_500,
                vec![
                    Step::Push(f),
                    cpu(2),
                    Step::Io { ns: 30 * MILLIS },
                    Step::PostRender {
                        frames: 6,
                        frame_ns: 4 * MILLIS,
                    },
                    Step::Pop,
                ],
            ),
            (
                4_000,
                vec![
                    Step::Push(f),
                    Step::PostTask {
                        executor,
                        token: 0,
                        steps: task(20),
                    },
                    cpu(3),
                    Step::JoinTask { token: 0 },
                    Step::Pop,
                ],
            ),
            (
                5_200,
                vec![
                    Step::Push(f),
                    Step::PostWorker(vec![Step::Io { ns: 50 * MILLIS }, cpu(10)]),
                    cpu(5),
                    Step::Pop,
                ],
            ),
            (
                7_000,
                vec![
                    Step::Push(f),
                    Step::Cpu {
                        ns: 25 * MILLIS,
                        profile: MemProfile::memory_heavy(),
                    },
                    Step::Pop,
                ],
            ),
            (
                8_100,
                vec![
                    Step::Push(f),
                    Step::PostTask {
                        executor,
                        token: 0,
                        steps: task(100),
                    },
                    cpu(1),
                    Step::Pop,
                ],
            ),
        ];
        let (n, last_arrival) = (
            actions.len(),
            SimTime::from_ms(actions[actions.len() - 1].0),
        );
        for (i, (at_ms, steps)) in actions.into_iter().enumerate() {
            sim.schedule_action(
                SimTime::from_ms(at_ms),
                ActionRequest {
                    uid: ActionUid(i as u64),
                    name: format!("gap {i}"),
                    events: vec![steps],
                },
            );
        }
        let words = Rc::new(RefCell::new(Vec::new()));
        sim.add_probe(Box::new(GapProbe {
            kworkers: kworkers(&cfg),
            words: words.clone(),
        }));
        if keep_alive {
            sim.add_probe(Box::new(KeepAlive {
                until: last_arrival,
                armed: false,
            }));
        }
        let summary = sim.run();
        assert!(!summary.truncated);
        assert_eq!(summary.actions_completed, n);
        let mut words = words.take();
        let per_begin = 4 + 3 * cores;
        assert_eq!(words.len(), n * per_begin, "one record per action begin");
        // No pulse fired before the boot action, so with `KeepAlive` every
        // pulse fired one event at a time.
        assert!(words[4..per_begin].iter().all(|&w| w == 0));
        let main = sim.main_tid();
        words.extend(HwEvent::ALL.map(|e| sim.thread_counter(main, e).to_bits()));
        for k in kworkers(&cfg) {
            for e in [
                HwEvent::TaskClock,
                HwEvent::CpuClock,
                HwEvent::ContextSwitches,
            ] {
                words.push(sim.thread_counter(k, e).to_bits());
            }
        }
        (words, summary)
    };
    for cores in [2, 4, 8] {
        for seed in [7, 42] {
            let (idle, stepped) = (run(cores, seed, false), run(cores, seed, true));
            assert_eq!(idle, stepped, "{cores} cores, seed {seed}");
        }
    }
}

#[test]
fn pulse_train_is_a_function_of_seed_and_core() {
    // Each kworker's pulse train draws from its own stream, so what the
    // app does never moves it: under one seed, two different workloads
    // read identical kworker counters at the same fixed instants.
    struct Sampler {
        kworkers: Vec<ThreadId>,
        words: Rc<RefCell<Vec<Vec<u64>>>>,
    }
    impl Probe for Sampler {
        fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, info: &ActionInfo) {
            if info.uid == ActionUid(0) {
                for i in 1..=40 {
                    ctx.set_timer(SimTime::from_ms(i * 97), i);
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, token: u64) {
            let mut words = vec![token, ctx.now().as_ns()];
            words.extend(kworker_words(ctx, &self.kworkers));
            self.words.borrow_mut().push(words);
        }
    }
    let run = |cores: usize, seed: u64, workload: &[(u64, Vec<Step>)]| {
        let mut t = FrameTable::new();
        let f = t.intern_new("edge.App.onClick", "App.java", 1);
        let cfg = SimConfig {
            cores,
            seed,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(cfg, t);
        // The same boot action arms the sampling timers in both runs.
        let boot = (0, vec![cpu(1)]);
        for (i, (at_ms, steps)) in std::iter::once(&boot).chain(workload).enumerate() {
            let mut events = vec![Step::Push(f)];
            events.extend(steps.iter().cloned());
            events.push(Step::Pop);
            sim.schedule_action(
                SimTime::from_ms(*at_ms),
                ActionRequest {
                    uid: ActionUid(i as u64),
                    name: format!("work {i}"),
                    events: vec![events],
                },
            );
        }
        let words = Rc::new(RefCell::new(Vec::new()));
        sim.add_probe(Box::new(Sampler {
            kworkers: kworkers(&cfg),
            words: words.clone(),
        }));
        sim.run();
        let words = words.take();
        assert_eq!(words.len(), 40, "every timer fired");
        words
    };
    let compute = [
        (
            120,
            vec![Step::Cpu {
                ns: 600 * MILLIS,
                profile: MemProfile::compute(),
            }],
        ),
        (1_500, vec![cpu(200), Step::Io { ns: 40 * MILLIS }, cpu(90)]),
    ];
    let interactive = [
        (
            300,
            vec![
                cpu(15),
                Step::PostRender {
                    frames: 30,
                    frame_ns: 6 * MILLIS,
                },
            ],
        ),
        (
            900,
            vec![
                Step::PostWorker(vec![cpu(250), Step::Io { ns: 80 * MILLIS }]),
                cpu(40),
            ],
        ),
        (
            2_600,
            vec![Step::Cpu {
                ns: 300 * MILLIS,
                profile: MemProfile::memory_heavy(),
            }],
        ),
    ];
    for cores in [2, 4] {
        for seed in [3, 42] {
            let (a, b) = (run(cores, seed, &compute), run(cores, seed, &interactive));
            for (a, b) in a.iter().zip(&b) {
                assert_eq!(
                    a, b,
                    "{cores} cores, seed {seed}: [timer, now, kworker clocks]"
                );
            }
        }
    }
}

#[test]
fn a_truncated_run_stops_at_the_horizon() {
    // The horizon cuts a long CPU step short. The run ends at the horizon
    // itself, not at whichever event lay past it, and a probe reading
    // main's task-clock at the end sees no CPU time beyond the horizon.
    struct EndReader(Rc<RefCell<Option<(SimTime, f64)>>>);
    impl Probe for EndReader {
        fn on_sim_end(&mut self, ctx: &mut ProbeCtx<'_>) {
            let main = ctx.main_tid();
            let clock = ctx.counter(main, HwEvent::TaskClock);
            *self.0.borrow_mut() = Some((ctx.now(), clock));
        }
    }
    let arrival = SimTime::from_ms(10);
    for cores in [1, 2] {
        for k in 0..40u64 {
            let horizon = arrival.as_ns() + 2 * MILLIS + k * 3_137_777;
            let (t, f) = table_with_frames();
            let mut sim = Simulator::new(
                SimConfig {
                    cores,
                    max_sim_ns: horizon,
                    ..SimConfig::default()
                },
                t,
            );
            sim.schedule_action(
                arrival,
                ActionRequest {
                    uid: ActionUid(1),
                    name: "long".into(),
                    events: vec![vec![Step::Push(f), cpu(400), Step::Pop]],
                },
            );
            let end = Rc::new(RefCell::new(None));
            sim.add_probe(Box::new(EndReader(end.clone())));
            let summary = sim.run();
            let label = format!("{cores} cores, horizon {horizon}");
            assert!(summary.truncated, "{label}");
            assert_eq!(summary.actions_completed, 0, "{label}");
            assert_eq!(summary.ended_at, SimTime(horizon), "{label}");
            let (now, clock) = end.take().expect("on_sim_end ran");
            assert_eq!(now, SimTime(horizon), "{label}");
            assert!(clock > 0.0, "{label}");
            assert!(
                clock <= (horizon - arrival.as_ns()) as f64,
                "{label}: main ran {clock} ns of {} ns",
                horizon - arrival.as_ns()
            );
        }
    }
}
