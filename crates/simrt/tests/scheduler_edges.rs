//! Scheduler and runtime edge cases that unit tests don't reach.

use std::cell::RefCell;
use std::rc::Rc;

use hd_simrt::{
    ActionInfo, ActionRequest, ActionUid, FrameTable, HwEvent, MemProfile, MessageInfo, Probe,
    ProbeCtx, SimConfig, SimTime, Simulator, Step, TimelineRecorder, MILLIS,
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

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn idle_gaps_keep_the_pulse_schedule() {
    // Between actions only the per-core system pulses run. At each
    // action's begin the probe pins where the gap left the clock, the
    // shared random stream (one jitter draw: its value moves if the gap
    // consumed a different number of pulse draws) and main's kernel
    // counters; the digest also covers the run summary. The constants
    // were captured from the heap-only scheduler, so a faster idle path
    // must replay the gaps exactly.
    struct GapProbe(Rc<RefCell<Vec<u64>>>);
    impl Probe for GapProbe {
        fn on_action_begin(&mut self, ctx: &mut ProbeCtx<'_>, _info: &ActionInfo) {
            let main = ctx.main_tid();
            let words = [
                ctx.now().as_ns(),
                ctx.jitter(0.5).to_bits(),
                ctx.counter(main, HwEvent::ContextSwitches).to_bits(),
                ctx.counter(main, HwEvent::TaskClock).to_bits(),
            ];
            self.0.borrow_mut().extend(words);
        }
    }
    let run = |cores: usize| {
        let mut t = FrameTable::new();
        let f = t.intern_new("edge.App.onClick", "App.java", 1);
        let g = t.intern_new("edge.Db.query", "Db.java", 2);
        let mut sim = Simulator::new(
            SimConfig {
                cores,
                seed: 7,
                ..SimConfig::default()
            },
            t,
        );
        let executor = sim.add_executor("SerialExecutor", 1) as u32;
        let task = |io_ms: u64| {
            vec![
                Step::Push(g),
                Step::Io { ns: io_ms * MILLIS },
                cpu(5),
                Step::Pop,
            ]
        };
        let actions = [
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
        sim.add_probe(Box::new(GapProbe(words.clone())));
        let summary = sim.run();
        assert!(!summary.truncated);
        assert_eq!(summary.actions_completed, 6);
        let mut words = words.take();
        assert_eq!(words.len(), 6 * 4, "one record per action begin");
        words.extend([
            summary.ended_at.as_ns(),
            u64::from(summary.truncated),
            summary.actions_completed as u64,
        ]);
        fnv1a(&words)
    };
    for (cores, expected) in [
        (2, 0x0a6c_9de5_e320_aea1),
        (4, 0xa90e_0bc9_3729_d8b2),
        (8, 0x2575_93c7_b3cd_c571),
    ] {
        let got = run(cores);
        assert_eq!(got, expected, "{cores} cores: digest {got:#018x}");
    }
}
