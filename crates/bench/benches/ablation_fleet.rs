//! Locality-on vs locality-off fleet-scheduling ablation.
//!
//! A repeated-spec workload over a persistent 8-worker fleet: round 1
//! computes six distinct cubic lattices cold (N = 128); round 2 re-runs
//! the same lattices and seeds at N = 64 — in *reverse* order, the way a
//! repeat workload actually arrives — whose per-realization rows are
//! bitwise prefixes of round 1's. A shard routed back to the worker that
//! computed it in round 1 is served from the warm inventory without
//! recomputation. With locality scoring on, the scheduler finds those
//! workers regardless of arrival order; with `locality: false` (the CLI's
//! `--no-locality`) placement is least-loaded, which under the reversed
//! arrival order lands shards on cold workers and recomputes. (Submitting
//! the repeat round in the *same* order would let least-loaded placement
//! mirror round 1 exactly and warm every shard by accident.)
//!
//! Results land in `results/ablation_fleet.csv` with per-round placement
//! counters and a `speedup_vs_no_locality` column on the warm round — the
//! acceptance evidence that warm routing yields cache-hit placements and
//! measurably reduces repeat-job latency.

use criterion::{BenchmarkId, Criterion};
use kpm_shard::transport::loopback_pair;
use kpm_shard::worker::serve_endpoint;
use kpm_shard::{Fleet, FleetClient, FleetPolicy, FleetStats};
use std::hint::black_box;
use std::time::Instant;

const WORKERS: usize = 8;
const SEED: u64 = 7;
/// Two shards per job on eight workers: jobs *can* concentrate, so warm
/// routing has room to matter (with shards == workers every worker warms
/// up in round 1 and the modes become indistinguishable).
const SHARDS_PER_JOB: usize = 2;
const COLD_MOMENTS: usize = 128;
const WARM_MOMENTS: usize = 64;
const REPS: usize = 3;

fn spawn_fleet(locality: bool) -> Fleet {
    let endpoints = (0..WORKERS)
        .map(|i| {
            let (coord, worker) = loopback_pair(&format!("ablate-{i}"));
            std::thread::spawn(move || serve_endpoint(worker));
            coord
        })
        .collect();
    let policy = FleetPolicy { shards_per_job: SHARDS_PER_JOB, locality, ..FleetPolicy::default() };
    Fleet::start(endpoints, policy, None).expect("start fleet")
}

fn lattices() -> Vec<String> {
    (12usize..18).map(|l| format!("cubic:{l},{l},{l}")).collect()
}

/// Submits the whole workload concurrently and waits; returns wall
/// seconds. Same seeds both rounds — round 2's lower moment order is what
/// makes round 1's rows reusable prefixes.
fn run_round(client: &FleetClient, moments: usize, reverse: bool) -> f64 {
    let mut lats = lattices();
    if reverse {
        lats.reverse();
    }
    let t = Instant::now();
    let rxs: Vec<_> = lats
        .iter()
        .map(|lat| {
            let line = format!("dos lattice={lat} moments={moments} random=2 sets=2 seed={SEED}");
            client.submit_async(&line).expect("submit")
        })
        .collect();
    for rx in rxs {
        rx.recv().expect("scheduler alive").expect("job succeeds");
    }
    t.elapsed().as_secs_f64()
}

struct RoundRow {
    seconds: f64,
    stats: FleetStats,
}

/// One fleet lifecycle: cold round, reversed warm round, with per-round
/// placement counter deltas. Min-of-`REPS` wall times (fresh fleet per
/// rep, so warm state never leaks between reps). Note: the tuning profile
/// store is process-global, so reps after the first report warm-profile
/// placements even on their cold round — an honest reading of the coarse
/// profile signal.
fn measure(locality: bool) -> (RoundRow, RoundRow) {
    let mut best_cold = f64::INFINITY;
    let mut best_warm = f64::INFINITY;
    let mut cold_stats = FleetStats::default();
    let mut warm_stats = FleetStats::default();
    for _ in 0..REPS {
        let fleet = spawn_fleet(locality);
        let client = fleet.client();
        let cold = run_round(&client, COLD_MOMENTS, false);
        let after_cold = fleet.stats().expect("stats");
        let warm = run_round(&client, WARM_MOMENTS, true);
        let after_warm = fleet.stats().expect("stats");
        if cold < best_cold {
            best_cold = cold;
            cold_stats = after_cold.clone();
        }
        if warm < best_warm {
            best_warm = warm;
            warm_stats = diff(&after_warm, &after_cold);
        }
        fleet.shutdown();
    }
    (
        RoundRow { seconds: best_cold, stats: cold_stats },
        RoundRow { seconds: best_warm, stats: warm_stats },
    )
}

/// Placement-counter delta between two cumulative snapshots.
fn diff(after: &FleetStats, before: &FleetStats) -> FleetStats {
    FleetStats {
        jobs_completed: after.jobs_completed - before.jobs_completed,
        place_warm_rows: after.place_warm_rows - before.place_warm_rows,
        place_warm_op: after.place_warm_op - before.place_warm_op,
        place_warm_profile: after.place_warm_profile - before.place_warm_profile,
        place_cold: after.place_cold - before.place_cold,
        steals: after.steals - before.steals,
        ..FleetStats::default()
    }
}

fn write_results_csv() {
    let jobs = lattices().len();
    let mut rows =
        vec!["mode,workers,jobs,round,num_moments,seconds,place_warm_rows,place_warm_op,\
         place_warm_profile,place_cold,steals,speedup_vs_no_locality"
            .to_string()];
    let (on_cold, on_warm) = measure(true);
    let (off_cold, off_warm) = measure(false);
    assert!(
        on_warm.stats.place_warm_rows + on_warm.stats.place_warm_op > 0,
        "locality-on warm round must place shards on warm workers: {:?}",
        on_warm.stats
    );
    let mut push = |mode: &str, round: &str, n: usize, r: &RoundRow, speedup: Option<f64>| {
        let s = &r.stats;
        rows.push(format!(
            "{mode},{WORKERS},{jobs},{round},{n},{:.6},{},{},{},{},{},{}",
            r.seconds,
            s.place_warm_rows,
            s.place_warm_op,
            s.place_warm_profile,
            s.place_cold,
            s.steals,
            speedup.map_or_else(|| "1.000".to_string(), |v| format!("{v:.3}")),
        ));
    };
    push("locality", "cold", COLD_MOMENTS, &on_cold, None);
    push(
        "locality",
        "warm-repeat",
        WARM_MOMENTS,
        &on_warm,
        Some(off_warm.seconds / on_warm.seconds),
    );
    push("no-locality", "cold", COLD_MOMENTS, &off_cold, None);
    push("no-locality", "warm-repeat", WARM_MOMENTS, &off_warm, None);

    // `cargo bench` runs with the package directory as cwd; anchor the
    // output at the workspace root.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("ablation_fleet.csv"), rows.join("\n") + "\n")
        .expect("write ablation_fleet.csv");
}

fn bench_warm_repeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fleet");
    group.sample_size(3);
    for locality in [true, false] {
        let label = if locality { "locality" } else { "no-locality" };
        // Each sample is a full fleet lifecycle (spawn, cold round,
        // reversed repeat round): repeating the warm round on one fleet
        // would be answered from the coordinator's journal image after the
        // first call and time nothing.
        group.bench_with_input(BenchmarkId::new("cold-plus-repeat", label), &(), |b, ()| {
            b.iter(|| {
                let fleet = spawn_fleet(locality);
                let client = fleet.client();
                run_round(&client, COLD_MOMENTS, false);
                black_box(run_round(&client, WARM_MOMENTS, true));
                fleet.shutdown();
            });
        });
    }
    group.finish();
}

fn main() {
    write_results_csv();
    let mut c = Criterion::default();
    bench_warm_repeat(&mut c);
}
