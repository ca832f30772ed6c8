//! `repro` — regenerate every table and figure of Jacob & Mudge
//! (ASPLOS 1998).
//!
//! ```text
//! repro <experiment>... [--quick|--full] [--threads N] [--out DIR] [--strict]
//!                       [--events FILE] [--chrome-trace FILE]
//!                       [--verbosity 0|1|2 | -q | -v]
//!
//! experiments:
//!   tables                    Tables 1-4
//!   fig6 fig7                 VMCPI vs cache organization (gcc / vortex)
//!   fig8 fig9                 VMCPI component breakdowns (gcc / vortex)
//!   fig10                     interrupt-cost sensitivity (all benchmarks)
//!   fig11                     TLB-size sensitivity
//!   fig12                     MCPI inflicted on the application
//!   fig13                     total VM overhead (the 5-10% -> 10-30% result)
//!   abl-hybrid abl-walkmode abl-assoc abl-tlb abl-ctx abl-unified abl-mp
//!   suite                     six workloads x five systems, seed-replicated
//!   telemetry                 instrumented pass: walk-latency histograms
//!                             per system (implied by --events/--chrome-trace)
//!   figs                      fig6..fig13
//!   all                       everything above
//!
//! design-space exploration:
//!   explore <spec.toml | dir>... [--sweep key=v1,v2,...]... [--jobs N]
//!           [--check] [--quick|--full] [--out DIR] [--events FILE]
//!           [--retries N] [--point-budget CYCLES] [--journal FILE]
//!           [--resume FILE] [--chaos fault@ix,...] [--chaos-seed N]
//!           [--isolation unwind|process]
//!   worker                    (internal) supervised sweep-point worker;
//!                             spawned by --isolation process, speaks
//!                             NDJSON on stdin/stdout
//!
//! one-off simulation:
//!   run [--system S] [--workload W] [--l1 16K] [--l1-line 64]
//!       [--l2 1M] [--l2-line 128] [--tlb-entries 128] [--unified]
//!       [--instrs N] [--seed N] [--events FILE] [--chrome-trace FILE]
//!
//! simulation service (see docs/serving.md):
//!   serve [--addr HOST:PORT] [--port N] [--jobs N] [--workers N] [--queue N]
//!         [--degrade-depth N] [--state-dir DIR] [--resume] [--events FILE]
//!         [--io-timeout-ms N] [--max-request-bytes N]
//!         [--checkpoint-interval N] [--watch-buffer N]
//!         [--chaos fault@ix,...] [--chaos-seed N]
//!   serve-stats <events.jsonl>...
//!   serve-bench [--batch N]
//!   watch --addr HOST:PORT [JOB | --all] [--json]   (see docs/live.md)
//!   trace-export --out FILE [--workload W] [--seed N] [--instrs N]
//!   upload --addr HOST:PORT --name NAME <trace.bin> [--chunk-bytes SIZE]
//!          [--max-retries N] [--chaos corrupt@seq|truncate@seq|stall@seq,...]
//!
//! fleet exploration (see docs/fleet.md):
//!   fleet <spec.toml | dir>... [--sweep key=v1,v2,...]...
//!         (--spawn N | --backend HOST:PORT)... [--quick|--full]
//!         [--out DIR] [--journal FILE] [--events FILE] [--retries N]
//!         [--point-budget CYCLES] [--hedge-ms N] [--evict-after N]
//!         [--evict-window-ms N] [--audit-rate P] [--watch-addr HOST:PORT]
//!
//! result integrity (see docs/robustness.md):
//!   verify <explore.csv> --journal FILE [--spec system.toml]
//!
//! Results (tables, claims, CSV) go to stdout; progress (headings,
//! heartbeats, timings) goes to stderr, gated by --verbosity.
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;

use vm_core::cost::CostModel;
use vm_core::{SimConfig, SystemKind};
use vm_experiments::{
    ablations, explore, fig6, fig8, interrupts, mcpi, multiprog, registry, suite, tables,
    telemetry, tlbsize, total,
};
use vm_experiments::{set_global_verbosity, Claim, Reporter, Verbosity};
use vm_explore::{Axis, ExecConfig, HardenPolicy, SystemSpec};
use vm_fleet::{
    fleet_plan, fleet_throughput, run_fleet, seed_fleet_resume, Backend, ControlChannel,
    FleetOptions, FleetSession, WatchProxy,
};
use vm_harden::{ChaosPlan, Journal, JournalWriter, RetryPolicy};
use vm_obs::json::Value;
use vm_obs::JsonlSink;
use vm_serve::{bench_json, throughput, EventReport, ServeConfig, Server, WatchHub};
use vm_supervise::{PoolConfig, WorkerCommand, WorkerPool};
use vm_trace::presets;

/// Parses "16K" / "1M" / "512" style size strings into bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Writes an export buffer to `path`, reporting the outcome on stderr.
fn write_export(reporter: &Reporter, path: &Path, bytes: &[u8]) {
    match std::fs::write(path, bytes) {
        Ok(()) => reporter.progress(format!("wrote {} ({} bytes)", path.display(), bytes.len())),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// The `run` subcommand: one custom simulation, full report.
fn run_one(args: &[String]) -> Result<(), String> {
    let mut config = SimConfig::paper_default(SystemKind::Ultrix);
    let mut workload = presets::gcc_spec();
    let mut instrs: u64 = 2_000_000;
    let mut seed: u64 = 42;
    let mut events: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--system" => {
                let v = value("--system")?;
                config.system =
                    SystemKind::from_label(&v).ok_or_else(|| format!("unknown system `{v}`"))?;
            }
            "--workload" => {
                let v = value("--workload")?;
                workload = presets::by_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?;
            }
            "--l1" => config.l1_bytes = parse_size(&value("--l1")?).ok_or("bad --l1 size")?,
            "--l2" => config.l2_bytes = parse_size(&value("--l2")?).ok_or("bad --l2 size")?,
            "--l1-line" => {
                config.l1_line = value("--l1-line")?.parse().map_err(|e| format!("{e}"))?
            }
            "--l2-line" => {
                config.l2_line = value("--l2-line")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tlb-entries" => {
                config.tlb_entries = value("--tlb-entries")?.parse().map_err(|e| format!("{e}"))?
            }
            "--unified" => config.unified_l2 = true,
            "--instrs" => instrs = value("--instrs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            "--chrome-trace" => chrome = Some(PathBuf::from(value("--chrome-trace")?)),
            "--verbosity" => {
                let v = value("--verbosity")?;
                set_global_verbosity(
                    Verbosity::parse(&v).ok_or_else(|| format!("bad --verbosity `{v}`"))?,
                );
            }
            "-q" | "--quiet" => set_global_verbosity(Verbosity::Quiet),
            "-v" | "--verbose" => set_global_verbosity(Verbosity::Verbose),
            other => return Err(format!("unknown flag `{other}` for run")),
        }
    }
    // Validate CLI-supplied geometry and workload up front so errors
    // surface as messages instead of telemetry-pass panics.
    config.build().map_err(|e| e.to_string())?;
    workload.build(seed).map_err(|e| e.to_string())?;
    let reporter = Reporter::global();
    let exec = ExecConfig { warmup: instrs / 4, measure: instrs, jobs: 1 };
    let tele = telemetry::run(
        &telemetry::Config::single(config, workload.clone(), seed, exec),
        events.is_some(),
        chrome.is_some(),
        &reporter,
    );
    let report = &tele.runs[0].report;
    let cost = CostModel::default();
    println!(
        "{} on {} — {} measured instructions (seed {seed})",
        config.system, workload.name, instrs
    );
    println!(
        "caches: {}K/{}B L1, {}K/{}B L2{}; TLBs: 2 x {} entries
",
        config.l1_bytes >> 10,
        config.l1_line,
        config.l2_bytes >> 10,
        config.l2_line,
        if config.unified_l2 { " (unified, 2x capacity)" } else { " (split)" },
        config.tlb_entries
    );
    let m = report.mcpi(&cost);
    println!(
        "MCPI  = {:.5}  (l1i {:.5}, l1d {:.5}, l2i {:.5}, l2d {:.5})",
        m.total(),
        m.l1i,
        m.l1d,
        m.l2i,
        m.l2d
    );
    let v = report.vmcpi(&cost);
    print!("VMCPI = {:.5}  (", v.total());
    let mut first = true;
    for (name, x) in v.components() {
        if x > 1e-6 {
            if !first {
                print!(", ");
            }
            print!("{name} {x:.5}");
            first = false;
        }
    }
    println!(")");
    for c in vm_core::cost::CostModel::INTERRUPT_COSTS {
        println!(
            "interrupt CPI @{c:>3} cycles = {:.5}",
            report.interrupt_cpi(&CostModel::paper(c))
        );
    }
    if let (Some(i), Some(d)) = (report.itlb, report.dtlb) {
        println!(
            "TLBs: I {} lookups / {:.5} miss ratio; D {} lookups / {:.5} miss ratio",
            i.lookups,
            i.miss_ratio(),
            d.lookups,
            d.miss_ratio()
        );
    }
    println!("total CPI @50-cycle interrupts = {:.4}", report.total_cpi(&cost));
    let s = &tele.runs[0].snapshot;
    let wc = s.walk_cycles.summary();
    let im = s.inter_miss.summary();
    println!(
        "walk latency (cycles): n={} p50={} p90={} p99={} max={}",
        wc.count, wc.p50, wc.p90, wc.p99, wc.max
    );
    println!(
        "handler footprint {:.2} memrefs/walk; inter-miss distance p50 = {} instrs",
        s.walk_memrefs.mean(),
        im.p50
    );
    if let (Some(path), Some(buf)) = (&events, &tele.events_jsonl) {
        write_export(&reporter, path, buf);
    }
    if let (Some(path), Some(buf)) = (&chrome, &tele.chrome_trace) {
        write_export(&reporter, path, buf);
    }
    Ok(())
}

/// Collects spec files from a path argument: a `.toml` file itself, or
/// every `*.toml` directly inside a directory (sorted by name).
fn collect_specs(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let mut found = Vec::new();
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("{}: {e}", path.display()))?.path();
            if p.extension().is_some_and(|x| x == "toml") {
                found.push(p);
            }
        }
        if found.is_empty() {
            return Err(format!("{} contains no .toml spec files", path.display()));
        }
        found.sort();
        out.extend(found);
        Ok(())
    } else if path.is_file() {
        out.push(path.to_path_buf());
        Ok(())
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

/// The `explore` subcommand: spec files in, sweep report out.
fn explore_cmd(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut axes: Vec<Axis> = Vec::new();
    let mut exec = ExecConfig { jobs: parallelism(), ..ExecConfig::DEFAULT };
    let mut check = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut harden = HardenPolicy::default();
    let mut journal: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut chaos_spec: Option<String> = None;
    let mut chaos_seed: u64 = 42;
    let mut isolation: String = "unwind".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--sweep" => axes.push(Axis::parse(&value("--sweep")?)?),
            "--isolation" => isolation = value("--isolation")?,
            "--jobs" => {
                exec.jobs = value("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--check" => check = true,
            "--retries" => {
                harden.retry = RetryPolicy::new(
                    value("--retries")?.parse().map_err(|e| format!("bad --retries: {e}"))?,
                )
            }
            "--point-budget" => {
                harden.point_budget = Some(
                    value("--point-budget")?
                        .parse()
                        .map_err(|e| format!("bad --point-budget: {e}"))?,
                )
            }
            "--journal" => journal = Some(PathBuf::from(value("--journal")?)),
            "--resume" => resume = Some(PathBuf::from(value("--resume")?)),
            "--chaos" => chaos_spec = Some(value("--chaos")?),
            "--chaos-seed" => {
                chaos_seed =
                    value("--chaos-seed")?.parse().map_err(|e| format!("bad --chaos-seed: {e}"))?
            }
            "--quick" => exec = ExecConfig { jobs: exec.jobs, ..ExecConfig::QUICK },
            "--full" => exec = ExecConfig { jobs: exec.jobs, ..ExecConfig::FULL },
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            "--verbosity" => {
                let v = value("--verbosity")?;
                set_global_verbosity(
                    Verbosity::parse(&v).ok_or_else(|| format!("bad --verbosity `{v}`"))?,
                );
            }
            "-q" | "--quiet" => set_global_verbosity(Verbosity::Quiet),
            "-v" | "--verbose" => set_global_verbosity(Verbosity::Verbose),
            "--help" | "-h" => {
                println!(
                    "usage: repro explore <spec.toml | dir>... [--sweep key=v1,v2,...]... [--jobs N]\n\
                     \x20                    [--check] [--quick|--full] [--out DIR] [--events FILE]\n\
                     \x20                    [--retries N] [--point-budget CYCLES]\n\
                     \x20                    [--journal FILE] [--resume FILE]\n\
                     \x20                    [--chaos fault@ix,...] [--chaos-seed N]\n\
                     \x20                    [--isolation unwind|process]\n\
                     \x20                    [--verbosity 0|1|2 | -q | -v]\n\
                     specs:   TOML-subset system descriptions (see docs/exploring.md and specs/)\n\
                     sweep:   dotted spec keys, e.g. --sweep tlb.entries=32,64,128 --sweep mmu.table=two-tier,hashed\n\
                     check:   parse and validate only; print each spec's lowered system and exit\n\
                     robustness (see docs/robustness.md):\n\
                     \x20 --retries       retry transient point failures with capped exponential backoff\n\
                     \x20 --point-budget  walk-cycle budget per point; over-budget points become `timeout` outcomes\n\
                     \x20 --journal       append finished points to a durable JSONL run journal\n\
                     \x20 --resume        skip a journal's completed points, re-run the rest, keep appending\n\
                     \x20 --chaos         inject faults (panic|io|corrupt|runaway|abort|oom|stall|truncate)\n\
                     \x20                 at point indices, e.g. panic@2,io@5 (abort/oom need --isolation process)\n\
                     \x20 --isolation     unwind (catch_unwind, default) or process: run every point in a\n\
                     \x20                 supervised worker process that survives abort/SIGSEGV/SIGKILL/OOM"
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for explore (try --help)"))
            }
            path => collect_specs(Path::new(path), &mut paths)?,
        }
    }
    if paths.is_empty() {
        return Err(
            "explore needs at least one spec file or directory (e.g. `repro explore specs`)"
                .to_owned(),
        );
    }
    let mut bases = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec = SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if check {
            let config = spec.validate().map_err(|e| format!("{}: {e}", path.display()))?;
            let tlbs = if config.system.uses_tlb() {
                format!("{} entries x2 TLB", config.tlb_entries)
            } else {
                "no TLB".to_owned()
            };
            println!(
                "{}: ok — {} on {} ({tlbs}, L1 {}K/L2 {}K)",
                path.display(),
                config.system.label(),
                spec.workload_name(),
                config.l1_bytes >> 10,
                config.l2_bytes >> 10,
            );
        }
        bases.push(spec);
    }
    if check {
        // Axes still get a dry validation so `--check --sweep ...`
        // catches bad keys without simulating.
        if !axes.is_empty() {
            let plan = explore::plan(&bases, &axes)?;
            println!(
                "sweep: {} runnable point(s), {} skipped",
                plan.points.len(),
                plan.skipped.len()
            );
            for s in &plan.skipped {
                println!("  skipped {} — {}", s.label, s.reason);
            }
        }
        return Ok(());
    }
    if let Some(spec) = &chaos_spec {
        harden.chaos = ChaosPlan::parse(spec, chaos_seed)?;
        // Refuse nonsensical combinations up front, with the offending
        // spec part and column: a process-killing fault without process
        // isolation would kill the whole exploration.
        ChaosPlan::check_isolation(spec, isolation == "process")?;
    }
    match isolation.as_str() {
        "unwind" => {}
        "process" => {
            let command = WorkerCommand::current_exe(&["worker"])
                .map_err(|e| format!("cannot resolve the worker executable: {e}"))?;
            let mut pool = PoolConfig::new(command);
            pool.workers = exec.jobs.max(1);
            harden.process = Some(std::sync::Arc::new(WorkerPool::new(pool)));
        }
        other => return Err(format!("bad --isolation `{other}` (unwind|process)")),
    }
    if journal.is_some() && resume.is_some() {
        return Err("--journal and --resume are mutually exclusive (resume keeps \
                    appending to the journal it reads)"
            .to_owned());
    }
    let reporter = Reporter::global();
    let cfg = explore::Config { bases, axes, exec, harden, journal, resume };
    let run = explore::run(&cfg, events.is_some(), &reporter)?;
    println!("{}", run.render());
    if !run.failures.is_empty() {
        reporter.progress(format!(
            "{} of {} point(s) failed (see report above{})",
            run.failures.len(),
            run.failures.len() + run.results.len(),
            if cfg.journal.is_some() || cfg.resume.is_some() {
                "; failures are journaled for --resume"
            } else {
                ""
            }
        ));
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (name, csv) in [
            ("explore", run.to_csv()),
            ("explore-frontier", run.frontier_to_csv()),
            ("explore-sensitivity", run.sensitivity_to_csv()),
        ] {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, csv.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            reporter.progress(format!("wrote {}", path.display()));
        }
    }
    if let (Some(path), Some(buf)) = (&events, &run.events_jsonl) {
        write_export(&reporter, path, buf);
    }
    Ok(())
}

/// Write end of the socket pair the signal handler pokes, or -1 before
/// [`install_shutdown_handler`] made it.
static SHUTDOWN_FD: AtomicI32 = AtomicI32::new(-1);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

extern "C" fn request_shutdown(_signum: i32) {
    #[cfg(unix)]
    {
        let fd = SHUTDOWN_FD.load(Ordering::Relaxed);
        if fd >= 0 {
            // SAFETY: write(2) is async-signal-safe; one byte from a
            // static buffer to a descriptor this process owns for its
            // whole life. The result is irrelevant (a full buffer
            // already holds a wake-up).
            unsafe {
                write(fd, b"!".as_ptr(), 1);
            }
        }
    }
}

/// The read end of the signal socket pair: a SIGTERM or SIGINT caught
/// since [`install_shutdown_handler`] leaves a byte in it.
struct ShutdownSignal {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl ShutdownSignal {
    /// Drains the daemon behind `drain` once a signal arrives. A signal
    /// caught before this call (say while the daemon was resuming jobs)
    /// is already waiting in the socket, so the drain starts at once.
    fn drain_on_signal(self, drain: vm_serve::DrainHandle) -> Result<(), String> {
        #[cfg(unix)]
        {
            use std::io::Read as _;
            let mut rx = self.rx;
            std::thread::Builder::new()
                .name("serve-signal".to_owned())
                .spawn(move || {
                    if rx.read(&mut [0u8]).is_ok() {
                        drain.drain();
                    }
                })
                .map_err(|e| format!("cannot spawn signal thread: {e}"))?;
        }
        #[cfg(not(unix))]
        let _ = (self, drain);
        Ok(())
    }
}

/// Routes SIGTERM and SIGINT into a graceful drain of `repro serve`
/// instead of death mid-job. The handler writes a byte to a socket
/// pair; [`ShutdownSignal::drain_on_signal`] turns it into a drain,
/// which also wakes the daemon's blocked `accept` (glibc restarts
/// `accept` after a handled signal, so the handler cannot reach it
/// directly). Install it before `Server::start`, so a signal during
/// startup is kept rather than killing the process. The vm-serve crate
/// itself stays `forbid(unsafe_code)`; the binary owns the `signal(2)`
/// calls.
fn install_shutdown_handler() -> Result<ShutdownSignal, String> {
    #[cfg(unix)]
    {
        use std::os::unix::io::IntoRawFd as _;
        use std::os::unix::net::UnixStream;

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let (rx, tx) =
            UnixStream::pair().map_err(|e| format!("cannot create signal socket: {e}"))?;
        tx.set_nonblocking(true).map_err(|e| format!("cannot set up signal socket: {e}"))?;
        SHUTDOWN_FD.store(tx.into_raw_fd(), Ordering::Relaxed);
        // SAFETY: signal(2) with a handler that only calls write(2),
        // performed once before the daemon starts.
        unsafe {
            signal(SIGTERM, request_shutdown as *const () as usize);
            signal(SIGINT, request_shutdown as *const () as usize);
        }
        Ok(ShutdownSignal { rx })
    }
    #[cfg(not(unix))]
    Ok(ShutdownSignal {})
}

/// The `serve` subcommand: run the fault-tolerant simulation daemon
/// until drained (by request, SIGTERM, or SIGINT).
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut chaos_spec: Option<String> = None;
    let mut chaos_seed: u64 = 42;
    let mut port: Option<u16> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--port" => {
                port = Some(value("--port")?.parse().map_err(|e| format!("bad --port: {e}"))?)
            }
            "--jobs" => {
                config.workers = value("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--workers" => {
                config.worker_processes =
                    value("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue" => {
                config.queue_cap =
                    value("--queue")?.parse().map_err(|e| format!("bad --queue: {e}"))?
            }
            "--degrade-depth" => {
                config.degrade_depth = value("--degrade-depth")?
                    .parse()
                    .map_err(|e| format!("bad --degrade-depth: {e}"))?
            }
            "--state-dir" => config.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--resume" => config.resume = true,
            "--events" => config.events = Some(PathBuf::from(value("--events")?)),
            "--io-timeout-ms" => {
                config.io_timeout = std::time::Duration::from_millis(
                    value("--io-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --io-timeout-ms: {e}"))?,
                )
            }
            "--max-request-bytes" => {
                config.max_request_bytes = value("--max-request-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --max-request-bytes: {e}"))?
            }
            "--max-trace-bytes" => {
                config.ingest.max_trace_bytes = parse_size(&value("--max-trace-bytes")?)
                    .ok_or("bad --max-trace-bytes size (e.g. 64M)")?
            }
            "--conn-upload-quota" => {
                config.ingest.max_conn_bytes = parse_size(&value("--conn-upload-quota")?)
                    .ok_or("bad --conn-upload-quota size (e.g. 256M)")?
            }
            "--staging-watermark" => {
                config.ingest.staging_watermark = parse_size(&value("--staging-watermark")?)
                    .ok_or("bad --staging-watermark size (e.g. 256M)")?
            }
            "--upload-ttl-secs" => {
                config.ingest.partial_ttl = std::time::Duration::from_secs(
                    value("--upload-ttl-secs")?
                        .parse()
                        .map_err(|e| format!("bad --upload-ttl-secs: {e}"))?,
                )
            }
            "--retry-after-ms" => {
                config.ingest.retry_after_ms = value("--retry-after-ms")?
                    .parse()
                    .map_err(|e| format!("bad --retry-after-ms: {e}"))?
            }
            "--chaos" => chaos_spec = Some(value("--chaos")?),
            "--chaos-seed" => {
                chaos_seed =
                    value("--chaos-seed")?.parse().map_err(|e| format!("bad --chaos-seed: {e}"))?
            }
            "--checkpoint-interval" => {
                config.checkpoint_interval = value("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-interval: {e}"))?
            }
            "--watch-buffer" => {
                config.watch_buffer = value("--watch-buffer")?
                    .parse()
                    .map_err(|e| format!("bad --watch-buffer: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro serve [--addr HOST:PORT] [--port N] [--jobs N] [--workers N] [--queue N]\n\
                     \x20                  [--degrade-depth N] [--state-dir DIR] [--resume] [--events FILE]\n\
                     \x20                  [--io-timeout-ms N] [--max-request-bytes N]\n\
                     \x20                  [--checkpoint-interval N] [--watch-buffer N]\n\
                     \x20                  [--max-trace-bytes SIZE] [--conn-upload-quota SIZE]\n\
                     \x20                  [--staging-watermark SIZE] [--upload-ttl-secs N] [--retry-after-ms N]\n\
                     \x20                  [--chaos fault@ix,...] [--chaos-seed N]\n\
                     Runs the newline-delimited-JSON simulation service until drained\n\
                     (drain request, SIGTERM, or SIGINT). See docs/serving.md.\n\
                     \x20 --addr          bind address; port 0 picks an ephemeral port (default 127.0.0.1:0)\n\
                     \x20 --port          rewrite just the port of the bind address; 0 binds an\n\
                     \x20                 ephemeral port and the bound address is printed as the\n\
                     \x20                 first stdout line (the fleet spawner's contract)\n\
                     \x20 --jobs          worker threads running sweeps (default 2)\n\
                     \x20 --workers       supervised worker *subprocesses* for point execution\n\
                     \x20                 (default 0 = in-process); a crashed point costs its job\n\
                     \x20                 a 500, never the daemon\n\
                     \x20 --queue         queued-job bound; submissions past it shed with 503 (default 8)\n\
                     \x20 --degrade-depth queue depth at which new jobs clamp to quick scale (default 4)\n\
                     \x20 --state-dir     persist job specs + journals here (enables --resume)\n\
                     \x20 --resume        reload persisted jobs from --state-dir at startup\n\
                     \x20 --events        append vm-obs lifecycle events (JSONL) for serve-stats\n\
                     \x20 --checkpoint-interval  instructions between live progress frames\n\
                     \x20                 on the watch stream (default 100000; see docs/live.md)\n\
                     \x20 --watch-buffer  per-subscriber frame queue bound; slower subscribers\n\
                     \x20                 are dropped with a lagged frame (default 256)\n\
                     trace ingestion (needs --state-dir; see docs/serving.md):\n\
                     \x20 --max-trace-bytes    largest accepted trace (default 64M; sizes take K/M)\n\
                     \x20 --conn-upload-quota  upload bytes one connection may declare (default 256M)\n\
                     \x20 --staging-watermark  staged-bytes level past which upload-begin answers\n\
                     \x20                      429 + retry_after instead of admitting (default 256M)\n\
                     \x20 --upload-ttl-secs    GC idle partial uploads after this (default 3600)\n\
                     \x20 --retry-after-ms     the retry hint carried by 429 responses (default 500)\n\
                     \x20 --chaos         inject faults into every job's sweep (chaos testing);\n\
                     \x20                 abort/oom faults need --workers N (process isolation)"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}` for serve (try --help)")),
        }
    }
    // Limits are validated here, at parse time: a daemon that boots and
    // then rejects every request (or drops every watcher) is a
    // misconfiguration, not a service.
    if config.max_request_bytes == 0 {
        return Err("--max-request-bytes 0 would reject every request line; \
                    give a positive byte bound (default 1048576)"
            .to_owned());
    }
    if config.watch_buffer == 0 {
        return Err("--watch-buffer 0 would drop every subscriber on its first frame; \
                    give a positive frame bound (default 256)"
            .to_owned());
    }
    if config.ingest.max_trace_bytes == 0 {
        return Err("--max-trace-bytes 0 would reject every upload; \
                    give a positive per-trace quota (default 64M)"
            .to_owned());
    }
    if config.ingest.max_conn_bytes == 0 {
        return Err("--conn-upload-quota 0 would reject every upload; \
                    give a positive per-connection quota (default 256M)"
            .to_owned());
    }
    if config.ingest.staging_watermark == 0 {
        return Err("--staging-watermark 0 would backpressure every upload; \
                    give a positive staging bound (default 256M)"
            .to_owned());
    }
    if let Some(spec) = &chaos_spec {
        config.chaos = ChaosPlan::parse(spec, chaos_seed)?;
        // Serve-side chaos applies to every job's sweep: a fault that
        // kills the host process needs worker subprocesses to absorb it.
        ChaosPlan::check_isolation(spec, config.worker_processes > 0)?;
    }
    // `--port` rewrites the bind address's port, whichever order the
    // flags came in; `--port 0` is the fleet spawner's contract (bind
    // ephemeral, print the bound address on the first stdout line).
    if let Some(port) = port {
        let host = config.addr.rsplit_once(':').map_or("127.0.0.1", |(host, _)| host);
        config.addr = format!("{host}:{port}");
    }
    if config.resume && config.state_dir.is_none() {
        return Err("--resume needs --state-dir (that is where jobs persist)".to_owned());
    }
    let shutdown_signal = install_shutdown_handler()?;
    let server = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    shutdown_signal.drain_on_signal(server.drain_handle())?;
    let addr = server.local_addr().map_err(|e| format!("no local address: {e}"))?;
    // CI and scripts scrape this exact line for the ephemeral port.
    println!("vm-serve listening on {addr}");
    std::io::stdout().flush().ok();
    let s = server.serve().map_err(|e| format!("serve failed: {e}"))?;
    eprintln!(
        "vm-serve drained: {} admitted, {} done, {} failed, {} cancelled, {} shed, {} pending",
        s.admitted, s.done, s.failed_jobs, s.cancelled, s.shed, s.pending
    );
    if s.pending > 0 {
        eprintln!("restart with --state-dir ... --resume to finish the pending job(s)");
    }
    Ok(())
}

/// The `serve-stats` subcommand: fold daemon event streams (possibly
/// spanning several lifetimes) into a lifecycle report.
fn serve_stats_cmd(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: repro serve-stats <events.jsonl>...\n\
                     Folds vm-serve --events streams into admission/shed/latency telemetry.\n\
                     Several files (daemon lifetimes) concatenate naturally."
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for serve-stats (try --help)"))
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return Err("serve-stats needs at least one events JSONL file".to_owned());
    }
    let mut text = String::new();
    for path in &paths {
        text.push_str(
            &std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
        if !text.ends_with('\n') {
            text.push('\n');
        }
    }
    let report = EventReport::from_jsonl(&text)?;
    print!("{}", report.render());
    Ok(())
}

/// The `trace-export` subcommand: synthesize a workload trace into the
/// compact binary format — the file `repro upload` ships to a daemon.
fn trace_export_cmd(args: &[String]) -> Result<(), String> {
    let mut workload = "gcc".to_owned();
    let mut seed: u64 = 42;
    let mut instrs: u64 = 100_000;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = value("--workload")?,
            "--seed" => seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--instrs" => {
                instrs = value("--instrs")?.parse().map_err(|e| format!("bad --instrs: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => {
                println!(
                    "usage: repro trace-export --out FILE [--workload W] [--seed N] [--instrs N]\n\
                     Synthesizes a workload's instruction trace into the compact binary\n\
                     format and prints its size and FNV-1a fingerprint. Feed the file to\n\
                     `repro upload` to ingest it into a daemon as a trace:NAME workload."
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}` for trace-export (try --help)")),
        }
    }
    let out = out.ok_or("trace-export needs --out FILE (try --help)")?;
    let spec =
        presets::by_name(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    if instrs == 0 {
        return Err("--instrs 0 would export an empty trace; give a positive count".to_owned());
    }
    let gen = spec.build(seed).map_err(|e| format!("cannot build `{workload}`: {e:?}"))?;
    let file =
        std::fs::File::create(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    let records = vm_trace::write_trace(&mut writer, gen.take(instrs as usize))
        .map_err(|e| format!("cannot write {}: {e:?}", out.display()))?;
    writer.flush().map_err(|e| format!("cannot flush {}: {e}", out.display()))?;
    let bytes =
        std::fs::read(&out).map_err(|e| format!("cannot re-read {}: {e}", out.display()))?;
    println!(
        "wrote {} — {} record(s), {} bytes, fnv {}",
        out.display(),
        records,
        bytes.len(),
        vm_serve::proto::hex64(vm_trace::wire::fnv1a(&bytes))
    );
    Ok(())
}

/// One chunk-granular fault for `repro upload --chaos`: the client
/// corrupts, truncates (drops the connection), or stalls exactly once
/// at the given sequence number, then heals — exercising the server's
/// checksum rejection and resume paths end to end.
struct UploadFault {
    kind: String,
    seq: u64,
    spent: bool,
}

fn parse_upload_chaos(spec: &str) -> Result<Vec<UploadFault>, String> {
    spec.split(',')
        .map(|part| {
            let part = part.trim();
            let (kind, seq) = part
                .split_once('@')
                .ok_or_else(|| format!("bad upload chaos `{part}` (want fault@seq)"))?;
            let kind = kind.trim();
            if !matches!(kind, "corrupt" | "truncate" | "stall") {
                return Err(format!("bad upload chaos fault `{kind}` (corrupt|truncate|stall)"));
            }
            let seq = seq.trim().parse().map_err(|e| format!("bad chaos seq in `{part}`: {e}"))?;
            Ok(UploadFault { kind: kind.to_owned(), seq, spent: false })
        })
        .collect()
}

/// The `upload` subcommand: stream a binary trace into a daemon's
/// library over the chunked upload protocol — checksummed, quota- and
/// backpressure-aware, and resumable across connection loss, daemon
/// restarts, and its own `--chaos` faults.
fn upload_cmd(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut chunk_bytes: usize = 256 << 10;
    let mut chaos: Vec<UploadFault> = Vec::new();
    let mut max_retries: u32 = 30;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--name" => name = Some(value("--name")?),
            "--chunk-bytes" => {
                chunk_bytes = parse_size(&value("--chunk-bytes")?)
                    .ok_or("bad --chunk-bytes size (e.g. 256K)")?
                    as usize
            }
            "--chaos" => chaos = parse_upload_chaos(&value("--chaos")?)?,
            "--max-retries" => {
                max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("bad --max-retries: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro upload --addr HOST:PORT --name NAME <trace.bin>\n\
                     \x20                   [--chunk-bytes SIZE] [--max-retries N]\n\
                     \x20                   [--chaos corrupt@seq|truncate@seq|stall@seq,...]\n\
                     Streams a binary trace (see `repro trace-export`) into a daemon's\n\
                     library as the workload `trace:NAME`. Every chunk carries an FNV-1a\n\
                     checksum; commit verifies a whole-trace fingerprint. 429 backpressure\n\
                     is honored via its retry_after hint, and a dropped connection (or a\n\
                     daemon restart) resumes from the first missing chunk via\n\
                     upload-status — the committed trace is byte-identical either way.\n\
                     \x20 --chunk-bytes  raw bytes per chunk (default 256K; must fit the\n\
                     \x20                daemon's --max-request-bytes after base64)\n\
                     \x20 --max-retries  give up after this many retryable faults (default 30)\n\
                     \x20 --chaos        inject one client-side fault per entry, then heal:\n\
                     \x20                corrupt@2 flips a byte of chunk 2 (server must 400),\n\
                     \x20                truncate@2 drops the connection after sending chunk 2,\n\
                     \x20                stall@2 sleeps 100ms before chunk 2"
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for upload (try --help)"))
            }
            path => file = Some(PathBuf::from(path)),
        }
    }
    let addr = addr.ok_or("upload needs --addr HOST:PORT (try --help)")?;
    let name = name.ok_or("upload needs --name NAME (try --help)")?;
    let file = file.ok_or("upload needs a trace file (see `repro trace-export`)")?;
    if chunk_bytes == 0 {
        return Err("--chunk-bytes 0 would never make progress; give a positive size".to_owned());
    }
    let bytes = std::fs::read(&file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    upload_trace(&addr, &name, &bytes, chunk_bytes, &mut chaos, max_retries)
}

/// The upload state machine: sync via `upload-status`, open or resume
/// via `upload-begin`, stream chunks, commit. Any transport loss or
/// sequence drift re-enters the sync step; `max_retries` bounds the
/// total number of retryable faults before giving up.
fn upload_trace(
    addr: &str,
    name: &str,
    bytes: &[u8],
    chunk_bytes: usize,
    chaos: &mut [UploadFault],
    max_retries: u32,
) -> Result<(), String> {
    use vm_serve::proto::hex64;
    use vm_trace::wire::{b64_encode, fnv1a};
    let reporter = Reporter::global();
    let total = bytes.len() as u64;
    let fnv = fnv1a(bytes);
    let mut retries = 0u32;
    let mut spend_retry = |what: &str| -> Result<(), String> {
        retries += 1;
        if retries > max_retries {
            return Err(format!("giving up after {max_retries} retryable fault(s): {what}"));
        }
        Ok(())
    };
    let connect = || -> Result<vm_serve::Client, String> {
        vm_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
    };
    let code_of = |v: &Value| v.get("code").and_then(Value::as_u64).unwrap_or(0);
    let mut client = connect()?;
    'sync: loop {
        // Where does the daemon think this upload stands?
        let status =
            client.request(&Value::obj([("req", "upload-status".into()), ("name", name.into())]));
        let status = match status {
            Ok(v) => v,
            Err(e) => {
                spend_retry(&e)?;
                std::thread::sleep(std::time::Duration::from_millis(100));
                client = connect()?;
                continue 'sync;
            }
        };
        if status.get("state").and_then(Value::as_str) == Some("committed") {
            println!(
                "trace `{name}` is already committed — submit jobs against workload trace:{name}"
            );
            return Ok(());
        }
        // Open or resume. Identical declaration resumes the partial;
        // the daemon answers with the first missing sequence number.
        let begin = client.request(&Value::obj([
            ("req", "upload-begin".into()),
            ("name", name.into()),
            ("bytes", total.into()),
            ("fnv", hex64(fnv).into()),
        ]));
        let begin = match begin {
            Ok(v) => v,
            Err(e) => {
                spend_retry(&e)?;
                std::thread::sleep(std::time::Duration::from_millis(100));
                client = connect()?;
                continue 'sync;
            }
        };
        match code_of(&begin) {
            200 => {}
            429 => {
                let wait = begin.get("retry_after").and_then(Value::as_u64).unwrap_or(500);
                spend_retry("backpressure (429)")?;
                reporter.progress(format!("daemon backpressured; retrying in {wait}ms"));
                std::thread::sleep(std::time::Duration::from_millis(wait.min(5_000)));
                continue 'sync;
            }
            code => {
                let detail = begin.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                return Err(format!("upload-begin rejected ({code}): {detail}"));
            }
        }
        let id = begin.get("upload").and_then(Value::as_u64).ok_or("response lacks upload id")?;
        let mut offset = begin.get("staged").and_then(Value::as_u64).unwrap_or(0) as usize;
        let mut seq = begin.get("next_seq").and_then(Value::as_u64).unwrap_or(0);
        if begin.get("resumed") == Some(&Value::Bool(true)) {
            reporter
                .progress(format!("resuming upload {id} at chunk {seq} ({offset} bytes staged)"));
        }
        while offset < bytes.len() {
            let end = (offset + chunk_bytes).min(bytes.len());
            let chunk = &bytes[offset..end];
            let mut body = chunk.to_vec();
            let mut drop_connection = false;
            for fault in chaos.iter_mut().filter(|f| !f.spent && f.seq == seq) {
                fault.spent = true;
                match fault.kind.as_str() {
                    "corrupt" => {
                        // Checksum is computed over the true bytes, so
                        // the daemon must detect the flipped body.
                        body[0] ^= 0x01;
                        reporter.progress(format!("chaos: corrupting chunk {seq}"));
                    }
                    "stall" => {
                        reporter.progress(format!("chaos: stalling before chunk {seq}"));
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    _ => {
                        reporter.progress(format!("chaos: dropping connection after chunk {seq}"));
                        drop_connection = true;
                    }
                }
            }
            let req = Value::obj([
                ("req", "upload-chunk".into()),
                ("upload", id.into()),
                ("seq", seq.into()),
                ("fnv", hex64(fnv1a(chunk)).into()),
                ("data", b64_encode(&body).into()),
            ]);
            if drop_connection {
                // Send without reading the reply, then sever — the
                // daemon may or may not have staged the chunk; resync
                // via upload-status decides.
                let _ = client.send(&req);
                spend_retry("chaos truncate")?;
                client = connect()?;
                continue 'sync;
            }
            let resp = match client.request(&req) {
                Ok(v) => v,
                Err(e) => {
                    spend_retry(&e)?;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    client = connect()?;
                    continue 'sync;
                }
            };
            match code_of(&resp) {
                200 => {
                    seq = resp.get("next_seq").and_then(Value::as_u64).unwrap_or(seq + 1);
                    offset =
                        resp.get("staged").and_then(Value::as_u64).unwrap_or(end as u64) as usize;
                }
                400 => {
                    // Checksum/encoding rejection: the staged prefix is
                    // intact, resend this same sequence number.
                    let detail = resp.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                    spend_retry(detail)?;
                    reporter.progress(format!("chunk {seq} rejected ({detail}); resending"));
                }
                409 => {
                    spend_retry("sequence drift (409)")?;
                    continue 'sync;
                }
                code => {
                    let detail = resp.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                    return Err(format!("chunk {seq} rejected ({code}): {detail}"));
                }
            }
        }
        let commit = match client
            .request(&Value::obj([("req", "upload-commit".into()), ("upload", id.into())]))
        {
            Ok(v) => v,
            Err(e) => {
                spend_retry(&e)?;
                std::thread::sleep(std::time::Duration::from_millis(100));
                client = connect()?;
                continue 'sync;
            }
        };
        match code_of(&commit) {
            200 => {
                let records = commit.get("records").and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "committed trace `{name}`: {total} bytes, {records} record(s), fnv {} — \
                     submit jobs against workload trace:{name}",
                    hex64(fnv)
                );
                return Ok(());
            }
            code => {
                let detail = commit.get("error").and_then(Value::as_str).unwrap_or("(no detail)");
                return Err(format!("upload-commit rejected ({code}): {detail}"));
            }
        }
    }
}

/// The `watch` subcommand: subscribe to a daemon's live telemetry
/// stream and render it as a terminal dashboard (or raw frames with
/// `--json`). See docs/live.md for the frame schema.
fn watch_cmd(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut all = false;
    let mut raw = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs HOST:PORT")?.clone()),
            "--all" => all = true,
            "--json" => raw = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro watch --addr HOST:PORT [JOB | --all] [--json]\n\
                     Subscribes to a running vm-serve daemon and renders live job\n\
                     telemetry: progress bars, instrs/sec, per-system partial VMCPI,\n\
                     and a worker-health strip. With a JOB id the stream ends at that\n\
                     job's terminal frame; --all watches everything until the daemon\n\
                     drains. --json prints the raw NDJSON frames instead (one per\n\
                     line, schema in docs/live.md)."
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for watch (try --help)"))
            }
            id => job = Some(id.parse().map_err(|_| format!("bad job id `{id}` (try --help)"))?),
        }
    }
    let addr = addr.ok_or("watch needs --addr HOST:PORT (try --help)")?;
    if all && job.is_some() {
        return Err("pick one of JOB or --all, not both".to_owned());
    }
    let mut client =
        vm_serve::Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut req = vec![("req".to_owned(), Value::from("watch"))];
    match job {
        Some(id) => req.push(("job".to_owned(), Value::from(id))),
        None => req.push(("job".to_owned(), Value::from("*"))),
    }
    client.send(&Value::Obj(req)).map_err(|e| format!("cannot subscribe: {e}"))?;
    let ack = client.next_line().map_err(|e| format!("no subscription ack: {e}"))?;
    if ack.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("daemon refused the watch: {ack}"));
    }
    // The daemon emits a keepalive tick every ~5 s of idle, so a read
    // timeout here means it died rather than went quiet.
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| format!("{e}"))?;
    let mut board = vm_serve::Dashboard::new();
    let mut painted_lines = 0usize;
    let mut saw_done = false;
    loop {
        let frame = match client.next_line() {
            Ok(frame) => frame,
            // For a single-job watch the daemon hangs up right after the
            // terminal frame; that close is the normal end of stream.
            Err(_) if saw_done => break,
            Err(e) if e.contains("connection closed") => {
                if !raw {
                    eprintln!("daemon closed the stream (drained or restarted)");
                }
                break;
            }
            Err(e) => return Err(format!("watch stream failed: {e}")),
        };
        let kind = frame.get("frame").and_then(Value::as_str).unwrap_or("").to_owned();
        if raw {
            println!("{frame}");
        } else {
            board.apply(&frame);
            if kind != "tick" {
                let paint = board.repaint(painted_lines);
                print!("{paint}");
                let _ = std::io::stdout().flush();
                painted_lines = board.render().lines().count();
            }
        }
        match kind.as_str() {
            "done" if job.is_some() => saw_done = true,
            "lagged" => return Err("dropped as a slow subscriber — reconnect to resume".to_owned()),
            _ => {}
        }
    }
    Ok(())
}

/// The `serve-bench` subcommand: throughput baseline at 1 and 4 workers
/// plus the 1/2/4-backend fleet scaling curve (the committed
/// `BENCH_serve.json` body goes to stdout).
fn serve_bench_cmd(args: &[String]) -> Result<(), String> {
    let mut batch: usize = 8;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batch" => {
                batch = it
                    .next()
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --batch: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro serve-bench [--batch N]\n\
                     Boots an in-process daemon at 1 then 4 workers, pushes N sweep jobs\n\
                     through the wire protocol, then runs a fixed grid through fleets\n\
                     of 1, 2, and 4 in-process daemons, and prints BENCH_serve.json."
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}` for serve-bench (try --help)")),
        }
    }
    let mut points = Vec::new();
    for workers in [1usize, 4] {
        let p = throughput(workers, batch)?;
        eprintln!(
            "serve-bench: {} worker(s), {} jobs -> {:.2} jobs/s ({} ms)",
            p.workers, p.jobs, p.jobs_per_sec, p.wall_ms
        );
        points.push(p);
    }
    let mut fleet_rows = Vec::new();
    for backends in [1usize, 2, 4] {
        let p = fleet_throughput(backends)?;
        eprintln!(
            "serve-bench: fleet of {}, {} points -> {:.2} points/s ({} ms)",
            p.backends, p.points, p.points_per_sec, p.wall_ms
        );
        fleet_rows.push(p.to_value());
    }
    println!("{}", bench_json(&points, &fleet_rows));
    Ok(())
}

/// The `fleet` subcommand: shard one sweep across several serve
/// daemons (spawned locally and/or already running) and merge the
/// shards back byte-identically to a single-node run. See docs/fleet.md.
fn fleet_cmd(args: &[String]) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut axes: Vec<Axis> = Vec::new();
    let mut exec = ExecConfig { jobs: 1, ..ExecConfig::DEFAULT };
    let mut spawn: usize = 0;
    let mut addrs: Vec<String> = Vec::new();
    let mut out_dir: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut fleet_journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut watch_addr: Option<String> = None;
    let mut join_addr: Option<String> = None;
    let mut opts = FleetOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--sweep" => axes.push(Axis::parse(&value("--sweep")?)?),
            "--spawn" => {
                spawn = value("--spawn")?.parse().map_err(|e| format!("bad --spawn: {e}"))?
            }
            "--backend" => addrs.push(value("--backend")?),
            "--quick" => exec = ExecConfig { jobs: exec.jobs, ..ExecConfig::QUICK },
            "--full" => exec = ExecConfig { jobs: exec.jobs, ..ExecConfig::FULL },
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            "--journal" => journal = Some(PathBuf::from(value("--journal")?)),
            "--fleet-journal" => fleet_journal = Some(PathBuf::from(value("--fleet-journal")?)),
            "--resume" => resume = true,
            "--watch-addr" => watch_addr = Some(value("--watch-addr")?),
            "--join-addr" => join_addr = Some(value("--join-addr")?),
            "--probation-ms" => {
                let ms: u64 = value("--probation-ms")?
                    .parse()
                    .map_err(|e| format!("bad --probation-ms: {e}"))?;
                opts.probation = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--keepalive-ms" => {
                let ms: u64 = value("--keepalive-ms")?
                    .parse()
                    .map_err(|e| format!("bad --keepalive-ms: {e}"))?;
                opts.keepalive = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--retries" => {
                opts.retries =
                    value("--retries")?.parse().map_err(|e| format!("bad --retries: {e}"))?
            }
            "--point-budget" => {
                opts.point_budget = Some(
                    value("--point-budget")?
                        .parse()
                        .map_err(|e| format!("bad --point-budget: {e}"))?,
                )
            }
            "--hedge-ms" => {
                let ms: u64 =
                    value("--hedge-ms")?.parse().map_err(|e| format!("bad --hedge-ms: {e}"))?;
                opts.hedge_after = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--evict-after" => {
                opts.evict.max_failures = value("--evict-after")?
                    .parse()
                    .map_err(|e| format!("bad --evict-after: {e}"))?
            }
            "--evict-window-ms" => {
                opts.evict.window = std::time::Duration::from_millis(
                    value("--evict-window-ms")?
                        .parse()
                        .map_err(|e| format!("bad --evict-window-ms: {e}"))?,
                )
            }
            "--poll-ms" => {
                opts.poll = std::time::Duration::from_millis(
                    value("--poll-ms")?.parse().map_err(|e| format!("bad --poll-ms: {e}"))?,
                )
            }
            "--audit-rate" => {
                let rate: f64 =
                    value("--audit-rate")?.parse().map_err(|e| format!("bad --audit-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("bad --audit-rate: {rate} is not in 0..=1"));
                }
                opts.audit_rate = rate;
            }
            "--verbosity" => {
                let v = value("--verbosity")?;
                set_global_verbosity(
                    Verbosity::parse(&v).ok_or_else(|| format!("bad --verbosity `{v}`"))?,
                );
            }
            "-q" | "--quiet" => set_global_verbosity(Verbosity::Quiet),
            "-v" | "--verbose" => set_global_verbosity(Verbosity::Verbose),
            "--help" | "-h" => {
                println!(
                    "usage: repro fleet <spec.toml | dir>... [--sweep key=v1,v2,...]...\n\
                     \x20                  (--spawn N | --backend HOST:PORT)...\n\
                     \x20                  [--quick|--full] [--out DIR] [--journal FILE] [--events FILE]\n\
                     \x20                  [--fleet-journal FILE [--resume]]\n\
                     \x20                  [--retries N] [--point-budget CYCLES]\n\
                     \x20                  [--hedge-ms N] [--evict-after N] [--evict-window-ms N]\n\
                     \x20                  [--probation-ms N] [--keepalive-ms N] [--audit-rate P]\n\
                     \x20                  [--poll-ms N] [--watch-addr HOST:PORT] [--join-addr HOST:PORT]\n\
                     \x20                  [--verbosity 0|1|2 | -q | -v]\n\
                     Shards the sweep across a fleet of vm-serve daemons and merges the\n\
                     shards back byte-identically to a single-node `repro explore --jobs 1`\n\
                     run — same tables, same CSV, same journal bytes. See docs/fleet.md.\n\
                     \x20 --spawn         fork N local `repro serve --port 0` children\n\
                     \x20                 (drained and reaped at exit)\n\
                     \x20 --backend       dispatch to an already-running daemon (repeatable,\n\
                     \x20                 mixes with --spawn)\n\
                     \x20 --journal       write the merged run journal (readable by\n\
                     \x20                 `repro explore --resume`)\n\
                     \x20 --fleet-journal append the coordinator's own crash-resume journal\n\
                     \x20                 (assignments + payloads) as the run progresses\n\
                     \x20 --resume        seed completed points from an existing --fleet-journal\n\
                     \x20                 and dispatch only the remainder\n\
                     \x20 --events        append fleet lifecycle events (JSONL) for serve-stats\n\
                     \x20 --hedge-ms      re-dispatch a point in flight longer than this on an\n\
                     \x20                 idle backend; first result wins (0 disables; default 2000)\n\
                     \x20 --evict-after   failures inside the window before a backend is\n\
                     \x20                 evicted from rotation (default 3)\n\
                     \x20 --evict-window-ms  the sliding eviction window (default 60000)\n\
                     \x20 --probation-ms  cool-down before an evicted backend is re-probed for\n\
                     \x20                 rejoin (0 makes eviction permanent; default 5000)\n\
                     \x20 --keepalive-ms  idle health-probe interval so dead-idle backends are\n\
                     \x20                 evicted promptly (0 disables; default 1000)\n\
                     \x20 --audit-rate    re-run this fraction of completed points on a second\n\
                     \x20                 backend and compare bit-for-bit; a mismatch quarantines\n\
                     \x20                 the losing backend (0 disables; default 0)\n\
                     \x20 --join-addr     listen here for join/leave/roster control verbs\n\
                     \x20                 (NDJSON; port 0 binds an ephemeral port; the bound\n\
                     \x20                 address is printed on stdout)\n\
                     \x20 --watch-addr    serve the fleet's aggregated live telemetry here for\n\
                     \x20                 `repro watch` (port 0 binds an ephemeral port; the\n\
                     \x20                 bound address is printed on stdout)"
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for fleet (try --help)"))
            }
            path => collect_specs(Path::new(path), &mut paths)?,
        }
    }
    if paths.is_empty() {
        return Err(
            "fleet needs at least one spec file or directory (e.g. `repro fleet specs --spawn 2`)"
                .to_owned(),
        );
    }
    if spawn == 0 && addrs.is_empty() {
        return Err("fleet needs backends: --spawn N and/or --backend HOST:PORT".to_owned());
    }
    if resume && fleet_journal.is_none() {
        return Err("--resume needs --fleet-journal FILE".to_owned());
    }
    let mut specs = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        // Parse errors surface here with the file name; fleet_plan only
        // re-parses known-good text.
        SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        specs.push(text);
    }
    let fplan = fleet_plan(&specs, &axes)?;
    let reporter = Reporter::global();

    let mut session = FleetSession::default();
    if let Some(path) = &fleet_journal {
        if resume {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let prior = seed_fleet_resume(&text, &fplan.plan, &exec)?;
            reporter.progress(format!(
                "resume: {} completed point(s) restored from {} ({} dispatch note(s))",
                prior.seeded.len(),
                path.display(),
                prior.assigns
            ));
            session.seeded = prior.seeded;
            // The prior coordinator already wrote the header; this run
            // appends to its lines.
            session.write_header = false;
            // A SIGKILL can tear the final line mid-write; appending
            // after it would fuse the torn tail with this run's first
            // line. Drop the tail (seeding already tolerated it).
            if !text.is_empty() && !text.ends_with('\n') {
                let keep = text.rfind('\n').map_or(0, |p| p + 1);
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| format!("cannot reopen {}: {e}", path.display()))?;
                file.set_len(keep as u64)
                    .map_err(|e| format!("cannot trim {}: {e}", path.display()))?;
            }
        } else {
            // A fresh run owns the file outright: stale lines from an
            // unrelated run must never leak into this run's resume.
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("cannot reset {}: {e}", path.display())),
            }
            session.write_header = true;
        }
        session.journal = Some(
            JournalWriter::open_path(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?,
        );
    }
    if let Some(addr) = &join_addr {
        let control =
            ControlChannel::bind(addr.as_str()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = control.local_addr().map_err(|e| format!("no local address: {e}"))?;
        // The smoke harness (and operators) scrape this line to reach
        // the control channel.
        println!("vm-fleet control on {bound}");
        std::io::stdout().flush().ok();
        session.control = Some(control);
    }

    let mut backends: Vec<Backend> = Vec::new();
    for addr in addrs {
        backends.push(Backend::from_addr(backends.len(), addr));
    }
    if spawn > 0 {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve my own executable: {e}"))?;
        // Spawned children get queue headroom and a parked degrade
        // watermark: a degraded admission would clamp run lengths and
        // break bit-identity, so the coordinator treats it as a fault.
        let extra = ["--queue", "64", "--degrade-depth", "64"].map(String::from);
        for _ in 0..spawn {
            let b = Backend::spawn(backends.len(), &exe, &extra)?;
            // The smoke harness scrapes these lines to find (and kill)
            // specific children mid-sweep.
            println!("vm-fleet backend {} pid {} at {}", b.id, b.pid().unwrap_or(0), b.addr);
            backends.push(b);
        }
        std::io::stdout().flush().ok();
    }

    static WATCH_STOP: AtomicBool = AtomicBool::new(false);
    let mut hub: Option<Arc<WatchHub>> = None;
    let mut proxy_thread = None;
    if let Some(addr) = &watch_addr {
        let h = Arc::new(WatchHub::new());
        let proxy =
            WatchProxy::bind(addr.as_str()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let bound = proxy.local_addr().map_err(|e| format!("no local address: {e}"))?;
        println!("vm-fleet watching on {bound}");
        std::io::stdout().flush().ok();
        let serve_hub = Arc::clone(&h);
        proxy_thread = Some(std::thread::spawn(move || proxy.serve(&serve_hub, &WATCH_STOP)));
        hub = Some(h);
    }

    let mut sink = events.is_some().then(|| JsonlSink::new(Vec::new()));
    let run_result =
        run_fleet(&fplan, &exec, backends, &opts, &reporter, &mut sink, hub.as_ref(), session);
    WATCH_STOP.store(true, Ordering::Release);
    if let Some(t) = proxy_thread {
        let _ = t.join();
    }
    let outcome = run_result?;
    for row in &outcome.roster {
        reporter.progress(format!(
            "backend {} at {}: {}{}, {} point(s) completed, teardown {}",
            row.slot,
            row.addr,
            row.state,
            if row.joined { " (joined mid-run)" } else { "" },
            row.completed,
            row.shutdown.label()
        ));
    }

    let vm_fleet::MergedRun { results, failures, journal: journal_bytes } = outcome.merged;
    let run =
        explore::ExploreRun::from_results(results, failures, fplan.plan.skipped.clone(), &axes);
    println!("{}", run.render());
    if !run.failures.is_empty() {
        reporter.progress(format!(
            "{} of {} point(s) failed permanently (each was dispatched to several backends)",
            run.failures.len(),
            run.failures.len() + run.results.len(),
        ));
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (name, csv) in [
            ("explore", run.to_csv()),
            ("explore-frontier", run.frontier_to_csv()),
            ("explore-sensitivity", run.sensitivity_to_csv()),
        ] {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, csv.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            reporter.progress(format!("wrote {}", path.display()));
        }
    }
    if let Some(path) = &journal {
        std::fs::write(path, &journal_bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        reporter.progress(format!(
            "wrote {} ({} bytes, byte-identical to a single-node --jobs 1 journal)",
            path.display(),
            journal_bytes.len()
        ));
    }
    if let (Some(path), Some(sink)) = (&events, sink) {
        match sink.finish() {
            Ok(buf) => write_export(&reporter, path, &buf),
            Err(e) => eprintln!("events capture failed: {e}"),
        }
    }
    Ok(())
}

/// The `verify` subcommand: offline integrity audit of committed run
/// artifacts. Re-derives every attestation in a journal, optionally
/// re-derives every context fingerprint from the base spec, and checks
/// the exported CSV is exactly what the journal's payloads render to.
/// Every failure names the point index and the stage that caught it
/// (`decode`, `attestation`, `context`, `csv`).
fn verify_cmd(args: &[String]) -> Result<(), String> {
    let mut csv_path: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut spec_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--journal" => journal_path = Some(PathBuf::from(value("--journal")?)),
            "--spec" => spec_path = Some(PathBuf::from(value("--spec")?)),
            "--help" | "-h" => {
                println!(
                    "usage: repro verify <explore.csv> --journal FILE [--spec system.toml]\n\
                     Offline result-integrity audit of committed artifacts: re-derives the\n\
                     attestation of every journaled payload, optionally re-derives each\n\
                     point's context fingerprint from the base spec, and re-renders the\n\
                     CSV from the journal to prove the two artifacts agree byte-for-byte.\n\
                     Failures name the point index and stage (decode | attestation |\n\
                     context | csv). See docs/robustness.md.\n\
                     \x20 --journal  the run journal the CSV was merged from (required)\n\
                     \x20 --spec     the base spec TOML the sweep expanded from; enables the\n\
                     \x20            context stage (detects payloads signed by a different\n\
                     \x20            spec, seed, or scale)"
                );
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}` for verify (try --help)"))
            }
            path => csv_path = Some(PathBuf::from(path)),
        }
    }
    let csv_path = csv_path.ok_or("verify needs the exported CSV file (try --help)")?;
    let journal_path = journal_path.ok_or("verify needs --journal FILE (try --help)")?;
    let journal = Journal::load(&journal_path)?;
    let header = journal.header.ok_or("journal has no run header — nothing pins the scale")?;
    let exec = ExecConfig { warmup: header.warmup, measure: header.measure, jobs: 1 };
    let base = match &spec_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Some(SystemSpec::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?)
        }
        None => None,
    };

    // Later journal lines supersede earlier ones (resume appends), so
    // fold entries in order before judging anything but decode.
    let mut results: std::collections::BTreeMap<u64, vm_explore::PointResult> =
        std::collections::BTreeMap::new();
    for entry in &journal.entries {
        let ix = entry.index;
        if entry.status != "done" {
            results.remove(&ix);
            continue;
        }
        let payload = entry
            .payload
            .as_ref()
            .ok_or_else(|| format!("point {ix} [decode]: done entry carries no payload"))?;
        let r = vm_explore::result_from_value(payload)
            .map_err(|e| format!("point {ix} [decode]: {e}"))?;
        if r.index as u64 != ix || r.label != entry.label {
            return Err(format!(
                "point {ix} [decode]: entry is `{}` but its payload claims point {} `{}`",
                entry.label, r.index, r.label
            ));
        }
        vm_explore::verify_sealed(&r).map_err(|e| format!("point {ix} [attestation]: {e}"))?;
        if let Some(base) = &base {
            // Re-expand the point exactly as a fleet backend would: the
            // payload's settings are the pinned axis assignment.
            let pinned: Vec<Axis> = r
                .settings
                .iter()
                .map(|(k, v)| Axis::parse(&format!("{k}={v}")))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
            let sub = vm_explore::SweepPlan::expand(base, &pinned)
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
            let point = match sub.points.as_slice() {
                [point] => point,
                other => {
                    return Err(format!(
                        "point {ix} [context]: settings re-expand to {} point(s), not one",
                        other.len()
                    ))
                }
            };
            if point.label != r.label {
                return Err(format!(
                    "point {ix} [context]: settings re-expand to `{}`, not `{}`",
                    point.label, r.label
                ));
            }
            let expect = vm_explore::context_for(point, &exec);
            vm_explore::verify_in_context(&r, expect)
                .map_err(|e| format!("point {ix} [context]: {e}"))?;
        }
        results.insert(ix, r);
    }

    let csv_text = std::fs::read_to_string(&csv_path)
        .map_err(|e| format!("cannot read {}: {e}", csv_path.display()))?;
    let ordered: Vec<vm_explore::PointResult> = results.into_values().collect();
    let count = ordered.len();
    let derived = explore::ExploreRun::from_results(ordered, Vec::new(), Vec::new(), &[]).to_csv();
    if derived != csv_text {
        let want: Vec<&str> = derived.lines().collect();
        let got: Vec<&str> = csv_text.lines().collect();
        let row = (0..want.len().max(got.len()))
            .find(|&i| want.get(i) != got.get(i))
            .expect("unequal text differs on some line");
        let name = if row == 0 {
            "csv header row".to_owned()
        } else {
            // Row i renders the i-th journaled result; name it by the
            // label so the operator can find the point without counting.
            want.get(row)
                .or_else(|| got.get(row))
                .and_then(|line| line.split(',').next())
                .map_or_else(|| format!("csv row {row}"), |l| format!("point `{l}`"))
        };
        return Err(format!(
            "{name} [csv]: journal renders `{}` but the CSV says `{}`",
            want.get(row).copied().unwrap_or("<nothing — CSV has extra rows>"),
            got.get(row).copied().unwrap_or("<nothing — CSV is short>"),
        ));
    }
    println!(
        "verified {count} point(s): decode ok, attestation ok, context {}, csv ok",
        if base.is_some() { "ok" } else { "skipped (no --spec)" }
    );
    Ok(())
}

struct Options {
    /// Run lengths, and `--threads` as the worker count.
    exec: ExecConfig,
    out: Option<PathBuf>,
    strict: bool,
    workload: Option<String>,
    events: Option<PathBuf>,
    chrome: Option<PathBuf>,
}

/// Restores the default SIGPIPE disposition so piping into `head`/`less`
/// terminates the process quietly instead of panicking on a broken-pipe
/// write error (Rust ignores SIGPIPE by default).
fn reset_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: signal(2) with SIG_DFL is async-signal-safe process setup
        // performed once before any other work.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// Whether `exec` runs at the `--quick` lengths (the reduced figure
/// grids go with them).
fn is_quick(exec: &ExecConfig) -> bool {
    ExecConfig { jobs: 1, ..*exec } == ExecConfig::QUICK
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn save(opts: &Options, name: &str, csv: &str) {
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes())) {
            Ok(()) => Reporter::global().progress(format!("wrote {}", path.display())),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Applies the global `--workload` override, falling back to the
/// experiment's paper default.
fn resolve_workload(
    opts: &Options,
    default: vm_trace::WorkloadSpec,
) -> Option<vm_trace::WorkloadSpec> {
    match &opts.workload {
        None => Some(default),
        Some(name) => match presets::by_name(name) {
            Some(w) => Some(w),
            None => {
                eprintln!("unknown workload `{name}` (gcc|vortex|ijpeg|li|compress|perl)");
                None
            }
        },
    }
}

fn report_claims(all: &mut Vec<Claim>, claims: Vec<Claim>) {
    print!("{}", Claim::render_all(&claims));
    all.extend(claims);
}

fn run_experiment(
    name: &str,
    opts: &Options,
    reporter: &Reporter,
    all_claims: &mut Vec<Claim>,
) -> bool {
    match name {
        "tables" => {
            reporter.progress("== tables: cost parameters and system survey ==");
            println!("{}", tables::render_all());
        }
        "fig6" | "fig7" => {
            let default = if name == "fig6" { presets::gcc_spec() } else { presets::vortex_spec() };
            let Some(workload) = resolve_workload(opts, default) else { return false };
            reporter.progress(format!(
                "== {name}: VMCPI vs L1/L2 cache size and line size — {} ==",
                workload.name
            ));
            let mut cfg = if is_quick(&opts.exec) {
                fig6::Config::quick(workload)
            } else {
                fig6::Config::paper(workload)
            };
            cfg.exec = opts.exec;
            let r = fig6::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "fig8" | "fig9" => {
            let default = if name == "fig8" { presets::gcc_spec() } else { presets::vortex_spec() };
            let Some(workload) = resolve_workload(opts, default) else { return false };
            reporter.progress(format!(
                "== {name}: VMCPI break-downs — {} (64/128-byte lines) ==",
                workload.name
            ));
            let mut cfg = if is_quick(&opts.exec) {
                fig8::Config::quick(workload)
            } else {
                fig8::Config::paper(workload)
            };
            cfg.exec = opts.exec;
            let r = fig8::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "fig10" => {
            reporter.progress("== fig10: the cost of precise interrupts ==");
            let mut cfg = interrupts::Config::paper(presets::paper_benchmarks());
            cfg.exec = opts.exec;
            let r = interrupts::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "fig11" => {
            reporter.progress("== fig11: TLB-size sensitivity ==");
            let mut cfg = tlbsize::Config::paper(vec![presets::gcc_spec(), presets::vortex_spec()]);
            cfg.exec = opts.exec;
            let r = tlbsize::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "fig12" => {
            reporter.progress("== fig12: cache misses inflicted on the application ==");
            let mut cfg = mcpi::Config::paper(presets::paper_benchmarks());
            cfg.exec = opts.exec;
            let r = mcpi::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "fig13" => {
            reporter.progress("== fig13: total VM overhead ==");
            let mut cfg = total::Config::paper(presets::paper_benchmarks());
            cfg.exec = opts.exec;
            let r = total::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "abl-mp" => {
            reporter.progress("== abl-mp: multiprogramming — ASID-tagged vs untagged TLBs ==");
            let mut cfg = multiprog::Config::default_mix(vec![
                presets::gcc_spec(),
                presets::vortex_spec(),
                presets::ijpeg_spec(),
            ]);
            cfg.exec = opts.exec;
            let r = multiprog::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "suite" => {
            reporter.progress("== suite: six workloads x five systems, seed-replicated ==");
            let mut cfg = suite::Config::default_suite(presets::all_benchmarks());
            cfg.exec = opts.exec;
            let r = suite::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "abl-hybrid" | "abl-walkmode" | "abl-assoc" | "abl-tlb" | "abl-ctx" | "abl-unified" => {
            let ablation = ablations::Ablation::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .expect("matched above");
            reporter.progress(format!("== {name} =="));
            let mut cfg =
                ablations::Config::new(ablation, vec![presets::gcc_spec(), presets::vortex_spec()]);
            cfg.exec = opts.exec;
            let r = ablations::run(&cfg);
            println!("{}", r.render());
            save(opts, name, &r.to_csv());
            report_claims(all_claims, r.claims());
        }
        "telemetry" => {
            let Some(workload) = resolve_workload(opts, presets::gcc_spec()) else { return false };
            reporter.progress(format!(
                "== telemetry: instrumented pass over the paper systems — {} ==",
                workload.name
            ));
            let cfg = telemetry::Config::paper_systems(workload, opts.exec);
            let t = telemetry::run(&cfg, opts.events.is_some(), opts.chrome.is_some(), reporter);
            println!("{}", t.render_summary());
            if let (Some(path), Some(buf)) = (&opts.events, &t.events_jsonl) {
                write_export(reporter, path, buf);
            }
            if let (Some(path), Some(buf)) = (&opts.chrome, &t.chrome_trace) {
                write_export(reporter, path, buf);
            }
        }
        other => {
            // Names are validated against the registry before dispatch,
            // so this only fires if the registry and this match drift.
            eprintln!("experiment `{other}` is registered but has no driver");
            return false;
        }
    }
    println!();
    true
}

fn main() -> ExitCode {
    reset_sigpipe();
    // Binaries default to Normal (library callers stay Quiet); the
    // verbosity flags below override.
    set_global_verbosity(Verbosity::Normal);
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        // The (internal) supervised worker: NDJSON requests on stdin,
        // one reply line per point on stdout, heartbeats in between.
        // Spawned by `--isolation process` / `serve --workers`; exits at
        // stdin EOF (i.e. when its supervisor goes away).
        set_global_verbosity(Verbosity::Quiet);
        return match vm_explore::serve_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("run") {
        return match run_one(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro run: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("explore") {
        return match explore_cmd(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro explore: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(
        cmd @ ("serve" | "serve-stats" | "serve-bench" | "watch" | "fleet" | "upload"
        | "trace-export" | "verify"),
    ) = args.first().map(String::as_str)
    {
        let run = match cmd {
            "serve" => serve_cmd(&args[1..]),
            "serve-stats" => serve_stats_cmd(&args[1..]),
            "watch" => watch_cmd(&args[1..]),
            "fleet" => fleet_cmd(&args[1..]),
            "upload" => upload_cmd(&args[1..]),
            "trace-export" => trace_export_cmd(&args[1..]),
            "verify" => verify_cmd(&args[1..]),
            _ => serve_bench_cmd(&args[1..]),
        };
        return match run {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repro {cmd}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut opts = Options {
        exec: ExecConfig { jobs: parallelism(), ..ExecConfig::DEFAULT },
        out: None,
        strict: false,
        workload: None,
        events: None,
        chrome: None,
    };
    let mut verbosity = Verbosity::Normal;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.exec = ExecConfig { jobs: opts.exec.jobs, ..ExecConfig::QUICK },
            "--strict" => opts.strict = true,
            "--events" => match it.next() {
                Some(p) => opts.events = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--events needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--chrome-trace" => match it.next() {
                Some(p) => opts.chrome = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--chrome-trace needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--verbosity" => match it.next().as_deref().and_then(Verbosity::parse) {
                Some(v) => verbosity = v,
                None => {
                    eprintln!("--verbosity needs 0|1|2 (or quiet|normal|verbose)");
                    return ExitCode::FAILURE;
                }
            },
            "-q" | "--quiet" => verbosity = Verbosity::Quiet,
            "-v" | "--verbose" => verbosity = Verbosity::Verbose,
            "--workload" => match it.next() {
                Some(w) => opts.workload = Some(w),
                None => {
                    eprintln!("--workload needs a name (gcc|vortex|ijpeg|li|compress|perl)");
                    return ExitCode::FAILURE;
                }
            },
            "--full" => opts.exec = ExecConfig { jobs: opts.exec.jobs, ..ExecConfig::FULL },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.exec.jobs = n,
                None => {
                    eprintln!("--threads needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(dir) => opts.out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                // The experiment list comes from the registry so this
                // text cannot drift from what actually runs.
                println!(
                    "usage: repro <experiment>... [--quick|--full] [--threads N] [--out DIR] [--strict]\n\
                     \x20                       [--events FILE] [--chrome-trace FILE] [--verbosity 0|1|2 | -q | -v]\n\
                     experiments:\n{}\
                     telemetry:   --events writes a JSONL event stream, --chrome-trace a chrome://tracing\n\
                     \x20            document; either implies the `telemetry` experiment\n\
                     exploration: repro explore <spec.toml | dir> [--sweep key=v1,v2]... [--jobs N] (see explore --help)\n\
                     one-off:     repro run [--system S] [--workload W] [--l1 16K] [--l2 1M] ... (see --help in source)\n\
                     service:     repro serve | serve-stats | serve-bench | watch (see serve --help, docs/serving.md,\n\
                     \x20            and docs/live.md)\n\
                     ingestion:   repro trace-export --out t.bin; repro upload --addr H:P --name NAME t.bin\n\
                     \x20            streams a binary trace into a daemon as workload trace:NAME (see docs/serving.md)\n\
                     fleet:       repro fleet <spec.toml | dir> --spawn N [--sweep ...] shards a sweep across\n\
                     \x20            several serve daemons and merges it back bit-identically (see docs/fleet.md)",
                    registry::help_block()
                );
                return ExitCode::SUCCESS;
            }
            name => names.push(name.to_owned()),
        }
    }
    set_global_verbosity(verbosity);
    let reporter = Reporter::global();
    if names.is_empty() {
        names.push("all".to_owned());
    }

    // Group aliases and name validation both come from the registry.
    let mut expanded = Vec::new();
    for n in names {
        match n.as_str() {
            "figs" => expanded.extend(registry::fig_names()),
            "all" => expanded.extend(registry::all_names()),
            other => {
                if !registry::is_known(other) {
                    eprintln!("unknown experiment `{other}` (known: {})", registry::name_line());
                    return ExitCode::FAILURE;
                }
                expanded.push(other.to_owned());
            }
        }
    }
    // --events/--chrome-trace imply the instrumented pass.
    if (opts.events.is_some() || opts.chrome.is_some())
        && !expanded.iter().any(|n| n == "telemetry")
    {
        expanded.push("telemetry".to_owned());
    }

    let started = std::time::Instant::now();
    let mut all_claims = Vec::new();
    for name in &expanded {
        let t = std::time::Instant::now();
        if !run_experiment(name, &opts, &reporter, &mut all_claims) {
            return ExitCode::FAILURE;
        }
        reporter.progress(format!("[{name}] finished in {:.1}s", t.elapsed().as_secs_f64()));
    }
    if !all_claims.is_empty() {
        let passed = all_claims.iter().filter(|c| c.holds).count();
        println!(
            "== overall: {passed}/{} paper claims reproduced in {:.1}s ==",
            all_claims.len(),
            started.elapsed().as_secs_f64()
        );
        if opts.strict && passed != all_claims.len() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
