//! Simulator golden: one digest line per configuration, checked in.
//!
//! The fleet goldens run only the 2- and 4-core device profiles at the
//! default kworker period and timeslice. This fixture pins the scheduler
//! itself over 1, 2, 4 and 8 cores × seeds 1 and 42 × a 6 ms (default)
//! and a 500 µs (dense preemption) pulse period × a 10 ms and a 1 ms
//! timeslice, under one mixed workload: UI work with render frames,
//! `Io`, `NetIo`, worker offload, and a serial-executor
//! `PostTask`/`JoinTask` convoy. A probe reads counters at every
//! dispatch begin and end and on timers it keeps armed while a dispatch
//! is open, so counter reads and probe timers land in busy periods.
//! (At the 500 µs period a pulse always preempts an app thread before a
//! 1 ms slice runs out, so those cases read the same as the 10 ms ones.)
//!
//! Each line's digest is FNV-1a over the action and task records, the
//! run summary, the monitor cost, every thread's counters as f64 bits
//! and the probe's reads. Performance work on the event loop must leave
//! every line as it is.
//!
//! Regenerate (only when the simulated schedule changes on purpose) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p hd-simrt --test golden
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use hd_simrt::{
    ActionRequest, ActionUid, FrameTable, HwEvent, MemProfile, MessageInfo, Probe, ProbeCtx,
    SimConfig, SimTime, Simulator, Step, TaskStatus, ThreadId, MICROS, MILLIS,
};

const FIXTURE: &str = include_str!("fixtures/simrt_golden.txt");

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cpu(ms: u64, profile: MemProfile) -> Step {
    Step::Cpu {
        ns: ms * MILLIS,
        profile,
    }
}

/// Reads main's and render's counters, main's network bytes and causal
/// stack depth, and one jitter draw at every dispatch edge and timer;
/// keeps a 3 ms timer armed while a dispatch is open.
struct Reader {
    words: Rc<RefCell<Vec<u64>>>,
    open: bool,
    fires: u64,
}

impl Reader {
    fn read(&mut self, ctx: &mut ProbeCtx<'_>, tag: u64) {
        let (main, render) = (ctx.main_tid(), ctx.render_tid());
        let mut words = vec![tag, ctx.now().as_ns()];
        for event in [
            HwEvent::TaskClock,
            HwEvent::ContextSwitches,
            HwEvent::CpuMigrations,
            HwEvent::Instructions,
            HwEvent::PageFaults,
        ] {
            words.push(ctx.counter(main, event).to_bits());
        }
        words.push(ctx.counter(render, HwEvent::TaskClock).to_bits());
        words.push(ctx.net_bytes(main));
        words.push(ctx.main_stack_causal().len() as u64);
        words.push(ctx.jitter(0.1).to_bits());
        ctx.note_counter_read();
        ctx.charge_cpu(1_000);
        self.words.borrow_mut().extend(words);
    }
}

impl Probe for Reader {
    fn on_dispatch_begin(&mut self, ctx: &mut ProbeCtx<'_>, info: &MessageInfo) {
        self.read(ctx, 1 + info.exec_id.0 * 8);
        self.open = true;
        let at = ctx.now() + 3 * MILLIS;
        ctx.set_timer(at, info.exec_id.0);
    }

    fn on_dispatch_end(&mut self, ctx: &mut ProbeCtx<'_>, info: &MessageInfo, response_ns: u64) {
        self.read(ctx, 2 + info.exec_id.0 * 8);
        self.words.borrow_mut().push(response_ns);
        self.open = false;
    }

    fn on_timer(&mut self, ctx: &mut ProbeCtx<'_>, token: u64) {
        self.fires += 1;
        self.read(ctx, 3 + token * 8);
        ctx.note_stack_sample();
        if self.open {
            let at = ctx.now() + 3 * MILLIS;
            ctx.set_timer(at, token);
        }
    }

    fn on_sim_end(&mut self, ctx: &mut ProbeCtx<'_>) {
        self.read(ctx, 4);
        self.words.borrow_mut().push(self.fires);
    }
}

/// Builds and runs one case; returns its fixture line.
fn case(cores: usize, seed: u64, period_ns: u64, slice_ns: u64) -> String {
    let mut t = FrameTable::new();
    let click = t.intern_new("golden.Main.onClick", "Main.java", 10);
    let set_text = t.intern_new("android.widget.TextView.setText", "TextView.java", 20);
    let camera = t.intern_new("android.hardware.Camera.open", "Camera.java", 30);
    let http = t.intern_new("java.net.HttpURLConnection.getInputStream", "Http.java", 40);
    let db = t.intern_new("golden.Db.query", "Db.java", 50);
    let decode = t.intern_new(
        "android.graphics.BitmapFactory.decodeFile",
        "Bitmap.java",
        60,
    );
    let join = t.intern_new("java.util.concurrent.FutureTask.get", "FutureTask.java", 70);
    let cfg = SimConfig {
        cores,
        seed,
        system_period_ns: period_ns,
        timeslice_ns: slice_ns,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, t);
    let serial = sim.add_executor("SerialExecutor", 1) as u32;
    let pool = sim.add_executor("ThreadPool", 2) as u32;
    let ui = vec![
        Step::Push(click),
        Step::Push(set_text),
        cpu(30, MemProfile::ui()),
        Step::PostRender {
            frames: 6,
            frame_ns: 4 * MILLIS,
        },
        Step::Pop,
        Step::Pop,
    ];
    let io = vec![
        Step::Push(click),
        Step::Push(camera),
        cpu(2, MemProfile::io_stub()),
        Step::Io { ns: 40 * MILLIS },
        cpu(3, MemProfile::ui()),
        Step::Pop,
        Step::Pop,
    ];
    let net = vec![
        Step::Push(click),
        Step::Push(http),
        Step::NetIo {
            ns: 25 * MILLIS,
            bytes: 4_096,
        },
        cpu(6, MemProfile::io_stub()),
        Step::Pop,
        Step::Pop,
    ];
    let offload = vec![
        Step::Push(click),
        Step::PostWorker(vec![
            Step::Io { ns: 30 * MILLIS },
            cpu(12, MemProfile::compute()),
        ]),
        Step::PostWorker(vec![cpu(20, MemProfile::memory_heavy())]),
        Step::PostWorker(vec![Step::Io { ns: 5 * MILLIS }, cpu(9, MemProfile::ui())]),
        cpu(8, MemProfile::ui()),
        Step::PostRender {
            frames: 3,
            frame_ns: 5 * MILLIS,
        },
        Step::Pop,
    ];
    // A convoy on the serial executor: main joins the short task queued
    // behind a long one, while a pool task computes beside them.
    let convoy = vec![
        Step::Push(click),
        Step::PostTask {
            executor: serial,
            token: 0,
            steps: vec![
                Step::Push(db),
                Step::Io { ns: 60 * MILLIS },
                cpu(5, MemProfile::compute()),
                Step::Pop,
            ],
        },
        Step::PostTask {
            executor: serial,
            token: 1,
            steps: vec![Step::Push(db), cpu(4, MemProfile::ui()), Step::Pop],
        },
        Step::PostTask {
            executor: pool,
            token: 2,
            steps: vec![
                Step::Push(decode),
                cpu(35, MemProfile::memory_heavy()),
                Step::Pop,
            ],
        },
        cpu(2, MemProfile::ui()),
        Step::Push(join),
        Step::JoinTask { token: 1 },
        Step::Pop,
        cpu(1, MemProfile::ui()),
        Step::JoinTask { token: 2 },
        Step::Pop,
    ];
    let heavy = vec![
        Step::Push(click),
        cpu(45, MemProfile::compute()),
        Step::PostWorker(vec![cpu(40, MemProfile::compute())]),
        cpu(25, MemProfile::memory_heavy()),
        Step::Pop,
    ];
    // Arrival times (ms): some actions land while earlier ones still
    // run, others after idle gaps.
    let actions: Vec<(u64, Vec<Vec<Step>>)> = vec![
        (5, vec![ui.clone()]),
        (20, vec![io.clone(), ui.clone()]),
        (400, vec![net]),
        (410, vec![offload]),
        (900, vec![convoy]),
        (960, vec![heavy.clone(), ui]),
        (1_700, vec![io]),
        (1_705, vec![heavy]),
    ];
    let n = actions.len();
    for (i, (at_ms, events)) in actions.into_iter().enumerate() {
        sim.schedule_action(
            SimTime::from_ms(at_ms),
            ActionRequest {
                uid: ActionUid(i as u64 + 1),
                name: format!("golden {i}"),
                events,
            },
        );
    }
    let reads = Rc::new(RefCell::new(Vec::new()));
    sim.add_probe(Box::new(Reader {
        words: reads.clone(),
        open: false,
        fires: 0,
    }));
    let summary = sim.run();
    let label = format!(
        "cores={cores} seed={seed} period_us={} slice_us={}",
        period_ns / MICROS,
        slice_ns / MICROS
    );
    assert!(!summary.truncated, "{label}: truncated");
    assert_eq!(summary.actions_completed, n, "{label}");

    let mut words = vec![
        summary.ended_at.as_ns(),
        u64::from(summary.truncated),
        summary.actions_completed as u64,
    ];
    for r in sim.records() {
        words.extend([
            r.exec_id.0,
            r.uid.0,
            u64::from(r.name.0),
            r.posted.as_ns(),
            r.began.as_ns(),
            r.ended.as_ns(),
            r.event_responses.len() as u64,
        ]);
        words.extend(&r.event_responses);
    }
    let tasks = sim.task_records();
    assert!(
        tasks.iter().all(|t| t.status == TaskStatus::Done),
        "{label}"
    );
    for t in &tasks {
        words.extend([
            t.executor as u64,
            t.posted.as_ns(),
            t.started.map_or(u64::MAX, SimTime::as_ns),
            t.finished.map_or(u64::MAX, SimTime::as_ns),
        ]);
    }
    let cost = sim.monitor_cost();
    words.extend([
        cost.cpu_ns,
        cost.mem_bytes,
        cost.counter_reads,
        cost.stack_samples,
        cost.timer_fires,
    ]);
    // main, render, the app's workers, one kworker per core, then the
    // serial executor's thread and the pool's two.
    let threads = 2 + cfg.workers + cores + 1 + 2;
    for tid in 0..threads {
        words.extend(HwEvent::ALL.map(|e| sim.thread_counter(ThreadId(tid), e).to_bits()));
    }
    let reads = reads.take();
    words.extend(&reads);
    format!(
        "{label} ended_at_ns={} reads={} digest={:016x}",
        summary.ended_at.as_ns(),
        reads.len(),
        fnv1a(&words)
    )
}

#[test]
fn schedule_matches_checked_in_digests() {
    let mut lines = Vec::new();
    for cores in [1, 2, 4, 8] {
        for seed in [1, 42] {
            for period_ns in [6 * MILLIS, 500 * MICROS] {
                for slice_ns in [10 * MILLIS, MILLIS] {
                    lines.push(case(cores, seed, period_ns, slice_ns));
                }
            }
        }
    }
    let rendered = lines.join("\n") + "\n";
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let path = format!(
            "{}/tests/fixtures/simrt_golden.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(path, rendered).expect("write fixture");
        return;
    }
    for (got, want) in rendered.lines().zip(FIXTURE.lines()) {
        assert_eq!(
            got, want,
            "simulator schedule drifted from the golden fixture"
        );
    }
    assert_eq!(
        rendered, FIXTURE,
        "simulator golden drifted; if the change is intentional, regenerate \
         with GOLDEN_REGEN=1"
    );
}
