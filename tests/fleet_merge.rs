//! vm-fleet end-to-end: sharding a sweep across backends is an
//! operational choice, never a scientific one. Any partition of the
//! grid — 1, 2, or 4 shards, with chaos failures and hedge duplicates
//! thrown in — must merge to journal bytes and CSV text identical to a
//! clean single-node `--jobs 1` run, and a real fleet with a
//! chaos-poisoned backend must evict it and still converge bit-exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use vm_experiments::explore::ExploreRun;
use vm_explore::{
    result_to_value, run_header, run_sweep_hardened, Axis, ExecConfig, HardenPolicy, PointResult,
    SweepPlan, SystemSpec,
};
use vm_fleet::{
    fleet_plan, merge, partition, rebind_payload, run_fleet, Backend, EvictPolicy, FleetOptions,
    FleetPlan, MergeSet, Offer,
};
use vm_harden::{ChaosPlan, JournalWriter, SharedBuf, SimError};
use vm_obs::{Event, NopSink, RecordingSink, Reporter};
use vm_serve::{Client, ServeConfig, Server};

const ULTRIX: &str = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n";

/// The 24-point property grid: 4 TLB sizes x 3 L1 sizes x 2 table
/// organizations over one base spec.
fn grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=4K,8K,16K").unwrap(),
        Axis::parse("mmu.table=two-tier,hashed").unwrap(),
    ];
    (vec![ULTRIX.to_owned()], axes, ExecConfig { warmup: 1_000, measure: 5_000, jobs: 1 })
}

/// Runs the whole grid single-node (`--jobs 1`) with a journal, exactly
/// as `repro explore --journal` does: header first, then every point.
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

/// Executes one point the way a backend does: re-expand the pinned
/// single-value axes over the shipped spec text into a one-point plan,
/// run it at `--jobs 1`, and return the (rebindable) payload.
fn run_point_like_a_backend(
    fplan: &FleetPlan,
    exec: &ExecConfig,
    harden: &HardenPolicy,
    ix: usize,
) -> Result<vm_obs::json::Value, SimError> {
    let base = SystemSpec::parse(&fplan.spec_toml[ix]).unwrap();
    let pinned: Vec<Axis> = fplan.pinned_axes(ix).iter().map(|s| Axis::parse(s).unwrap()).collect();
    let sub = SweepPlan::expand(&base, &pinned).unwrap();
    assert_eq!(sub.points.len(), 1, "pinned axes must re-expand to exactly one point");
    let outcome = run_sweep_hardened(
        &sub,
        &ExecConfig { jobs: 1, ..*exec },
        harden,
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        None,
    );
    let (results, mut failures) = outcome.into_parts();
    match results.first() {
        Some(r) => {
            let expect_ctx = vm_explore::context_for(&fplan.plan.points[ix], exec);
            Ok(rebind_payload(&result_to_value(r), ix, &fplan.plan.points[ix].label, expect_ctx)
                .unwrap())
        }
        None => Err(failures.remove(0)),
    }
}

fn csv_of(results: Vec<PointResult>, axes: &[Axis]) -> String {
    ExploreRun::from_results(results, Vec::new(), Vec::new(), axes).to_csv()
}

#[test]
fn fleet_plan_matches_the_single_node_planner() {
    let (specs, axes, _) = grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    assert_eq!(fplan.plan.points.len(), 24);
    let bases: Vec<SystemSpec> = specs.iter().map(|s| SystemSpec::parse(s).unwrap()).collect();
    let single = vm_experiments::explore::plan(&bases, &axes).unwrap();
    let fleet_labels: Vec<&str> = fplan.plan.points.iter().map(|p| p.label.as_str()).collect();
    let single_labels: Vec<&str> = single.points.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(fleet_labels, single_labels, "fleet planning must mirror repro explore exactly");
}

#[test]
fn any_shard_partition_merges_byte_identical_to_single_node() {
    let (specs, axes, exec) = grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let reference_csv = csv_of(reference.clone(), &axes);
    let labels: Vec<String> = fplan.plan.points.iter().map(|p| p.label.clone()).collect();

    // Every point executed once through the backend path; shardings
    // below only change arrival order, which must not matter.
    let payloads: Vec<vm_obs::json::Value> = (0..labels.len())
        .map(|ix| run_point_like_a_backend(&fplan, &exec, &HardenPolicy::default(), ix).unwrap())
        .collect();

    for shards in [1usize, 2, 4] {
        let parts = partition(labels.iter().map(String::as_str), shards);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), labels.len());
        let mut set = MergeSet::new(labels.len());
        // Interleave shard arrival round-robin: shard 0's first point,
        // shard 1's first, ... — nothing like index order.
        let mut cursors = vec![0usize; shards];
        let mut offered = 0;
        while offered < labels.len() {
            for (s, part) in parts.iter().enumerate() {
                if let Some(&ix) = part.get(cursors[s]) {
                    cursors[s] += 1;
                    offered += 1;
                    assert_eq!(set.offer(ix, payloads[ix].clone()), Offer::Won);
                }
            }
        }
        let merged = merge(&fplan.plan, &exec, &set, &BTreeMap::new()).unwrap();
        assert_eq!(merged.results, reference, "{shards} shard(s): results drifted");
        assert_eq!(merged.journal, reference_journal, "{shards} shard(s): journal bytes drifted");
        assert_eq!(csv_of(merged.results, &axes), reference_csv, "{shards} shard(s): CSV drifted");
    }
}

#[test]
fn chaos_failures_and_hedge_duplicates_still_merge_byte_identical() {
    let (specs, axes, exec) = grid();
    let fplan = fleet_plan(&specs, &axes).unwrap();
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);
    let labels: Vec<String> = fplan.plan.points.iter().map(|p| p.label.clone()).collect();
    let parts = partition(labels.iter().map(String::as_str), 4);

    // Shard 0's first dispatch lands on a chaos-poisoned backend (every
    // point panics); the coordinator re-dispatches each failed point,
    // which here means running it again on a clean policy.
    let chaos =
        HardenPolicy { chaos: ChaosPlan::parse("panic@0", 7).unwrap(), ..HardenPolicy::default() };
    let mut set = MergeSet::new(labels.len());
    for &ix in &parts[0] {
        let err = run_point_like_a_backend(&fplan, &exec, &chaos, ix)
            .expect_err("the poisoned first dispatch must fail");
        assert_eq!(err.label, labels[ix]);
        let retried = run_point_like_a_backend(&fplan, &exec, &HardenPolicy::default(), ix)
            .expect("the re-dispatch runs on a healthy backend");
        assert_eq!(set.offer(ix, retried), Offer::Won);
    }
    // The other shards complete normally; shard 1 is also hedged, so
    // every one of its results arrives twice and the copy is discarded.
    for (s, part) in parts.iter().enumerate().skip(1) {
        for &ix in part {
            let payload =
                run_point_like_a_backend(&fplan, &exec, &HardenPolicy::default(), ix).unwrap();
            assert_eq!(set.offer(ix, payload.clone()), Offer::Won);
            if s == 1 {
                assert_eq!(
                    set.offer(ix, payload),
                    Offer::DuplicateIdentical,
                    "the hedge loser must be compared and found identical"
                );
            }
        }
    }
    assert_eq!(set.duplicates_identical(), parts[1].len() as u64);
    assert_eq!(set.duplicates_divergent(), 0);
    let merged = merge(&fplan.plan, &exec, &set, &BTreeMap::new()).unwrap();
    assert_eq!(merged.results, reference);
    assert_eq!(merged.journal, reference_journal, "chaos + hedging must leave no trace");
}

#[test]
fn a_real_fleet_evicts_a_poisoned_backend_and_converges_bit_exactly() {
    let specs = vec![ULTRIX.to_owned()];
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").unwrap(),
        Axis::parse("cache.l1=8K,16K").unwrap(),
    ];
    let exec = ExecConfig { warmup: 1_000, measure: 5_000, jobs: 1 };
    let fplan = fleet_plan(&specs, &axes).unwrap();
    assert_eq!(fplan.plan.points.len(), 8);
    let (reference, reference_journal) = single_node_reference(&fplan, &exec);

    // Two healthy daemons plus one whose every job loses its only point
    // to a chaos panic — a flapping backend the breaker must remove.
    let mut servers = Vec::new();
    for poisoned in [false, false, true] {
        let config = ServeConfig {
            workers: 1,
            queue_cap: 8,
            degrade_depth: 9,
            chaos: if poisoned {
                ChaosPlan::parse("panic@0", 7).unwrap()
            } else {
                ChaosPlan::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve());
        servers.push((addr, handle));
    }
    let backends: Vec<Backend> = servers
        .iter()
        .enumerate()
        .map(|(id, (addr, _))| Backend::from_addr(id, addr.to_string()))
        .collect();

    let opts = FleetOptions {
        // Trip fast: the second failure inside the window evicts. No
        // probation — this test pins the pre-elastic "evicted once,
        // evicted forever" contract.
        evict: EvictPolicy { max_failures: 1, window: Duration::from_secs(60) },
        hedge_after: None,
        poll: Duration::from_millis(2),
        probation: None,
        ..FleetOptions::default()
    };
    let mut sink = RecordingSink::new();
    let outcome = run_fleet(
        &fplan,
        &exec,
        backends,
        &opts,
        &Reporter::silent(),
        &mut sink,
        None,
        vm_fleet::FleetSession::default(),
    )
    .unwrap();

    for (addr, handle) in servers {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.request(&vm_obs::json::Value::obj([("req", "drain".into())]));
        }
        let _ = handle.join();
    }

    assert_eq!(outcome.evicted, vec![2], "the poisoned backend must be evicted");
    assert_eq!(outcome.healthy, 2);
    assert!(outcome.merged.failures.is_empty(), "every point re-dispatches to a healthy slot");
    assert_eq!(outcome.merged.results, reference);
    assert_eq!(
        outcome.merged.journal, reference_journal,
        "an eviction mid-run must leave no trace in the journal"
    );
    assert!(sink.count(|e| matches!(e, Event::ShardDispatched { .. })) >= 8);
    assert_eq!(
        sink.count(|e| matches!(e, Event::BackendEvicted { backend: 2, .. })),
        1,
        "eviction is announced exactly once"
    );
    assert_eq!(sink.count(|e| matches!(e, Event::FleetMerged { .. })), 1);
}
