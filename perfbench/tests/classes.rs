//! The service probe's job classes do at this commit what the per-layer
//! metrics assume: the fresh job misses the serve cache, its exact repeat
//! hits it, and the fewer-sets repeat misses it but is served from the
//! fleet's warm rows, all of them on one worker, so the fleet steals a
//! shard for the idle one.

use kpm::obs::TraceHandle;
use kpm_serve::{CacheStatus, JobOutcome, JobSpec};
use perfbench::gen::{JobStream, Kind, Workload};
use perfbench::probe::ServiceStack;

#[test]
fn service_probe_classes_hit_the_serve_cache_and_the_fleet_warm_rows() {
    kpm::exec::set_thread_budget(1);
    let stack = ServiceStack::start(None).unwrap();
    assert_eq!(stack.cache_counters().unwrap(), (0, 0));
    for job in JobStream::service_probe(Workload::PaperLattice, 11) {
        let trace = TraceHandle::begin();
        let (record, _) = stack.run(JobSpec::parse(&job.line).unwrap()).unwrap();
        let warm_rows = trace.finish().counter("shard.inventory.row_hits").unwrap_or(0);
        let status = match record.outcome {
            JobOutcome::Completed(done) => done.cache,
            other => panic!("{}: {other:?}", job.line),
        };
        match job.kind {
            Kind::Fresh => assert_eq!(status, CacheStatus::Miss, "{}", job.line),
            Kind::RepeatExact => assert_eq!(status, CacheStatus::Hit, "{}", job.line),
            Kind::RepeatFewerSets => {
                assert_eq!(status, CacheStatus::Miss, "{}", job.line);
                assert!(warm_rows > 0, "{}: no shard was served from warm rows", job.line);
            }
        }
    }
    assert_eq!(stack.cache_counters().unwrap(), (1, 2));
    let (_, fleet) = stack.finish().unwrap();
    assert_eq!(fleet.jobs_completed, 2);
    assert!(fleet.place_warm_rows > 0 && fleet.steals > 0, "{}", fleet.render_json());
}
