//! vm-fleet elasticity: membership may change mid-run — backends join
//! via the control channel, drain via `leave`, die and rejoin through
//! probation — and the coordinator itself may be killed and resumed
//! from its fleet journal. None of it may show in the science: every
//! path here must converge to results, CSV, and journal bytes identical
//! to a clean single-node `--jobs 1` run.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use vm_experiments::explore::ExploreRun;
use vm_explore::{run_header, run_sweep_hardened, Axis, ExecConfig, HardenPolicy, PointResult};
use vm_fleet::{
    fleet_plan, run_fleet, seed_fleet_resume, Backend, ControlChannel, FleetOptions, FleetPlan,
    FleetSession,
};
use vm_harden::{JournalWriter, RetryPolicy, SharedBuf};
use vm_obs::json::Value;
use vm_obs::{Event, EvictReason, NopSink, RecordingSink, Reporter};
use vm_serve::{Client, ServeConfig, Server};

const ULTRIX: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

/// A grid big enough that membership changes land mid-run: 4 TLB sizes
/// x 3 L1 sizes x 2 table organizations, 24 points.
fn wide_grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=4K,8K,16K").unwrap(),
        Axis::parse("mmu.table=two-tier,hashed").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 10_000, jobs: 1 })
}

/// The 8-point grid the truncation sweep can afford to re-run many
/// times.
fn small_grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=8K,16K").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 5_000, jobs: 1 })
}

/// Runs the whole grid single-node (`--jobs 1`) with a journal, exactly
/// as `repro explore --journal` does — the bit-identity reference.
fn single_node_reference(fplan: &FleetPlan, exec: &ExecConfig) -> (Vec<PointResult>, Vec<u8>) {
    let buf = SharedBuf::new();
    let writer = Mutex::new(JournalWriter::boxed(buf.clone()));
    writer.lock().unwrap().header(&run_header(&fplan.plan, exec));
    let outcome = run_sweep_hardened(
        &fplan.plan,
        exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        Some(&writer),
    );
    writer.into_inner().unwrap().finish().unwrap();
    let (results, failures) = outcome.into_parts();
    assert!(failures.is_empty(), "the reference grid is known-good: {failures:?}");
    (results, buf.contents())
}

fn csv_of(results: Vec<PointResult>, axes: &[Axis]) -> String {
    ExploreRun::from_results(results, Vec::new(), Vec::new(), axes).to_csv()
}

/// Boots one healthy in-process daemon and returns its address plus the
/// serve-thread handle.
fn healthy_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let config =
        ServeConfig { workers: 1, queue_cap: 8, degrade_depth: 9, ..ServeConfig::default() };
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let _ = server.serve();
    });
    (addr, handle)
}

fn drain(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.request(&Value::obj([("req", "drain".into())]));
    }
    let _ = handle.join();
}

/// Deterministic elastic options: no hedging, no probation, no
/// keepalive — each test turns on exactly the mechanism it probes.
fn quiet_opts() -> FleetOptions {
    FleetOptions {
        hedge_after: None,
        poll: Duration::from_millis(2),
        probation: None,
        keepalive: None,
        ..FleetOptions::default()
    }
}

#[test]
fn a_joined_backend_receives_only_pending_points() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let reference_csv = csv_of(reference.clone(), &axes);

    let (addr_a, handle_a) = healthy_server();
    let (addr_b, handle_b) = healthy_server();
    let control = ControlChannel::bind("127.0.0.1:0").unwrap();
    let control_addr = control.local_addr().unwrap();
    let journal_buf = SharedBuf::new();
    let session = FleetSession {
        journal: Some(JournalWriter::boxed(journal_buf.clone())),
        write_header: true,
        control: Some(control),
        ..FleetSession::default()
    };
    let opts = quiet_opts();
    let backends = vec![Backend::from_addr(0, addr_a.to_string())];

    let (outcome, join_resp) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &opts,
                &Reporter::silent(),
                &mut RecordingSink::new(),
                None,
                session,
            )
            .unwrap()
        });
        // Join daemon B while the (single-backend) run is under way.
        let mut client = Client::connect(control_addr).unwrap();
        let resp = client
            .request(&Value::obj([("req", "join".into()), ("addr", addr_b.to_string().into())]))
            .unwrap();
        (run.join().unwrap(), resp)
    });
    drain(addr_a, handle_a);
    drain(addr_b, handle_b);

    assert_eq!(join_resp.get("ok"), Some(&Value::Bool(true)), "{join_resp}");
    assert_eq!(join_resp.get("slot").and_then(Value::as_u64), Some(1));

    // The property, read off the fleet journal (a valid serialization:
    // with hedging off each point's assign and done are written by the
    // same driver thread, in that order): the joined slot is never
    // assigned a point that already has a done entry — completed points
    // are never reassigned, only the pending set is re-shared.
    let text = journal_buf.text();
    let mut done: BTreeSet<u64> = BTreeSet::new();
    let mut joined_assigns = 0u64;
    for line in text.lines() {
        let v = vm_obs::json::parse(line).unwrap();
        match v.get("j").and_then(Value::as_str) {
            Some("assign") => {
                let point = v.get("point").and_then(Value::as_u64).unwrap();
                if v.get("backend").and_then(Value::as_u64) == Some(1) {
                    joined_assigns += 1;
                    assert!(
                        !done.contains(&point),
                        "joined slot was assigned already-completed point {point}"
                    );
                }
            }
            Some("point") if v.get("status").and_then(Value::as_str) == Some("done") => {
                done.insert(v.get("index").and_then(Value::as_u64).unwrap());
            }
            _ => {}
        }
    }
    assert!(joined_assigns >= 1, "the joined slot must actually receive work");
    assert_eq!(done.len(), fplan.plan.points.len());

    let row = &outcome.roster[1];
    assert!(row.joined, "roster must record the mid-run join");
    assert!(row.completed >= 1, "the joined slot must complete points");
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(outcome.merged.journal, reference_journal, "a join mid-run must leave no trace");
    assert_eq!(csv_of(outcome.merged.results, &axes), reference_csv);
}

#[test]
fn the_fleet_journal_resumes_byte_identically_at_every_truncation() {
    let (specs, axes, exec) = small_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let total = fplan.plan.points.len();

    let (addr, handle) = healthy_server();
    // One uninterrupted journaled fleet run produces the "crashed
    // coordinator" artifact every truncation below is cut from.
    let journal_buf = SharedBuf::new();
    let outcome = run_fleet(
        &fplan,
        &exec,
        vec![Backend::from_addr(0, addr.to_string())],
        &quiet_opts(),
        &Reporter::silent(),
        &mut NopSink,
        None,
        FleetSession {
            journal: Some(JournalWriter::boxed(journal_buf.clone())),
            write_header: true,
            ..FleetSession::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.merged.journal, reference_journal);
    let full = journal_buf.text();
    let lines: Vec<&str> = full.lines().collect();
    // header + one assign and one done per point.
    assert_eq!(lines.len(), 1 + 2 * total, "unexpected fleet journal shape:\n{full}");

    // Truncating before the header is not resumable — a crash that
    // early left nothing to vouch for the plan.
    assert!(seed_fleet_resume("", &fplan.plan, &exec).unwrap_err().contains("no run header"));

    // Every later cut resumes: seeded points are replayed, the rest are
    // re-dispatched, and the merge converges to the same bytes. A torn
    // copy of the next line (SIGKILL mid-`write`) must change nothing.
    for cut in 1..=lines.len() {
        for torn in [false, true] {
            let mut prefix = lines[..cut].join("\n");
            prefix.push('\n');
            if torn {
                match lines.get(cut) {
                    Some(next) => prefix.push_str(&next[..next.len() / 2]),
                    None => continue,
                }
            }
            let seed = seed_fleet_resume(&prefix, &fplan.plan, &exec)
                .unwrap_or_else(|e| panic!("cut {cut} torn {torn}: {e}"));
            let expect_seeded = seed.seeded.len();
            let resumed_buf = SharedBuf::new();
            let outcome = run_fleet(
                &fplan,
                &exec,
                vec![Backend::from_addr(0, addr.to_string())],
                &quiet_opts(),
                &Reporter::silent(),
                &mut NopSink,
                None,
                FleetSession {
                    journal: Some(JournalWriter::boxed(resumed_buf.clone())),
                    write_header: false,
                    seeded: seed.seeded,
                    control: None,
                },
            )
            .unwrap();
            assert_eq!(outcome.resumed, expect_seeded, "cut {cut} torn {torn}");
            assert!(outcome.merged.failures.is_empty(), "cut {cut} torn {torn}");
            assert_eq!(outcome.merged.results, reference, "cut {cut} torn {torn}: results drifted");
            assert_eq!(
                outcome.merged.journal, reference_journal,
                "cut {cut} torn {torn}: journal bytes drifted"
            );
            // The surviving journal prefix plus this run's appended
            // lines must itself seed a complete resume: crash-resume
            // composes. (The CLI trims a torn tail before appending, so
            // the stitched file is the untorn prefix plus new lines.)
            let stitched = format!("{}\n{}", lines[..cut].join("\n"), resumed_buf.text());
            let reseed = seed_fleet_resume(&stitched, &fplan.plan, &exec)
                .unwrap_or_else(|e| panic!("cut {cut} torn {torn} stitched: {e}"));
            assert_eq!(reseed.seeded.len(), total, "cut {cut} torn {torn}: stitched journal");
        }
    }
    drain(addr, handle);
}

#[test]
fn an_evicted_backend_heals_through_probation_and_completes_points() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);

    // Slot 0's address is reserved but nobody listens yet: the health
    // gate evicts it immediately. Slot 1 carries the run meanwhile.
    let reserved = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let (addr_b, handle_b) = healthy_server();
    let backends = vec![
        Backend::from_addr(0, reserved.to_string()),
        Backend::from_addr(1, addr_b.to_string()),
    ];
    let opts = FleetOptions {
        health_retry: RetryPolicy::NONE,
        probation: Some(Duration::from_millis(50)),
        probation_probes: 200,
        ..quiet_opts()
    };

    let mut sink = RecordingSink::new();
    let (outcome, healed) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &opts,
                &Reporter::silent(),
                &mut sink,
                None,
                FleetSession::default(),
            )
            .unwrap()
        });
        // The backend "heals": a daemon comes up on the reserved port
        // while the run is under way, for the probation probe to find.
        std::thread::sleep(Duration::from_millis(150));
        let config = ServeConfig {
            addr: reserved.to_string(),
            workers: 1,
            queue_cap: 8,
            degrade_depth: 9,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let healed_handle = std::thread::spawn(move || {
            let _ = server.serve();
        });
        (run.join().unwrap(), healed_handle)
    });
    drain(addr_b, handle_b);
    drain(reserved, healed);

    assert_eq!(outcome.evicted, vec![0], "the dead slot is evicted exactly once");
    let row = &outcome.roster[0];
    assert_eq!(row.state, "active", "the healed slot must be back in rotation");
    assert!(row.completed >= 1, "the rejoined slot must complete at least one point");
    assert_eq!(
        sink.count(|e| matches!(
            e,
            Event::BackendEvicted { backend: 0, reason: EvictReason::Health, .. }
        )),
        1
    );
    assert!(
        sink.count(|e| matches!(e, Event::BackendProbation { backend: 0, .. })) >= 1,
        "eviction with a probation policy must announce the cool-down"
    );
    assert_eq!(sink.count(|e| matches!(e, Event::BackendRejoined { backend: 0, .. })), 1);
    assert_eq!(
        sink.count(|e| matches!(e, Event::BackendRecovered { backend: 0, .. })),
        1,
        "one clean completion must clear the reduced budget"
    );
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(
        outcome.merged.journal, reference_journal,
        "a probation rejoin must leave no trace in the journal"
    );
}

#[test]
fn the_leave_verb_drains_a_slot_and_the_rest_converge() {
    let (specs, axes, exec) = wide_grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let total = fplan.plan.points.len();

    let (addr_a, handle_a) = healthy_server();
    let (addr_b, handle_b) = healthy_server();
    let control = ControlChannel::bind("127.0.0.1:0").unwrap();
    let control_addr = control.local_addr().unwrap();
    let backends =
        vec![Backend::from_addr(0, addr_a.to_string()), Backend::from_addr(1, addr_b.to_string())];

    let mut sink = RecordingSink::new();
    let (outcome, responses) = std::thread::scope(|scope| {
        let run = scope.spawn(|| {
            run_fleet(
                &fplan,
                &exec,
                backends,
                &quiet_opts(),
                &Reporter::silent(),
                &mut sink,
                None,
                FleetSession { control: Some(control), ..FleetSession::default() },
            )
            .unwrap()
        });
        let rpc = |req: Value| Client::connect(control_addr).unwrap().request(&req).unwrap();
        let leave = rpc(Value::obj([("req", "leave".into()), ("slot", 0u64.into())]));
        let again = rpc(Value::obj([("req", "leave".into()), ("slot", 0u64.into())]));
        let bogus = rpc(Value::obj([("req", "leave".into()), ("slot", 9u64.into())]));
        let roster = rpc(Value::obj([("req", "roster".into())]));
        (run.join().unwrap(), (leave, again, bogus, roster))
    });
    drain(addr_a, handle_a);
    drain(addr_b, handle_b);

    let (leave, again, bogus, roster) = responses;
    assert_eq!(leave.get("ok"), Some(&Value::Bool(true)), "{leave}");
    assert_eq!(leave.get("state").and_then(Value::as_str), Some("left"));
    assert_eq!(again.get("ok"), Some(&Value::Bool(false)), "a second leave must refuse: {again}");
    assert_eq!(again.get("code").and_then(Value::as_u64), Some(409));
    assert_eq!(bogus.get("code").and_then(Value::as_u64), Some(409), "{bogus}");
    let rows = roster.get("slots").and_then(Value::as_array).unwrap();
    assert_eq!(rows[0].get("state").and_then(Value::as_str), Some("left"));

    assert_eq!(outcome.evicted, vec![0]);
    assert_eq!(outcome.roster[0].state, "left");
    assert_eq!(outcome.roster[1].state, "active");
    assert_eq!(
        outcome.roster.iter().map(|r| r.completed).sum::<u64>(),
        total as u64,
        "every point is completed exactly once across the roster"
    );
    assert_eq!(
        sink.count(|e| matches!(
            e,
            Event::BackendEvicted { backend: 0, failures: 0, reason: EvictReason::Left }
        )),
        1,
        "an operator drain is an eviction with reason `left`"
    );
    assert!(outcome.merged.failures.is_empty());
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(outcome.merged.journal, reference_journal, "a drain mid-run must leave no trace");
}
