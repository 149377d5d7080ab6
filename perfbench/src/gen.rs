//! Seeded job generator: the benchmark's only source of inputs.
//!
//! A session's job stream is a pure function of `(workload, seed,
//! session)`. The program under test sees only the generated job lines,
//! parsed by its own `JobSpec::parse`, and the operators they name.
//! A stream repeats one fixed-order block per workload, so every seed runs
//! the same job mix and any prefix holds the class shares to within one
//! block. The seed picks the stochastic and disorder seeds of fresh jobs;
//! a repeat names the latest fresh job of its template.

use std::collections::VecDeque;
use std::str::FromStr;

/// SplitMix64: a small generator seedable from any `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The benchmark's workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DoS jobs on the paper's clean 10x10x10 lattice, in-process.
    PaperLattice,
    /// Disorder averaging on a 48^3 Anderson lattice, in-process.
    Anderson48,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperLattice, Workload::Anderson48];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLattice => "paper-lattice",
            Workload::Anderson48 => "anderson-48",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL.into_iter().find(|w| w.name() == s).ok_or_else(|| {
            format!("unknown workload '{s}' (expected paper-lattice or anderson-48)")
        })
    }
}

/// Latency class of a job. The generator fixes it; the program's own
/// cache status is never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The first time the run asks for this spec.
    Fresh,
    /// A spec derived from an earlier fresh job of the same session.
    Repeat,
}

/// What the generator made a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A new spec: stochastic (and disorder) seeds not used before.
    Fresh,
    /// The exact spec of an earlier fresh job.
    RepeatExact,
    /// An earlier fresh spec at a quarter of its realization sets.
    RepeatFewerSets,
}

impl Kind {
    /// The latency class this kind counts in.
    pub fn class(self) -> Class {
        match self {
            Kind::Fresh => Class::Fresh,
            Kind::RepeatExact | Kind::RepeatFewerSets => Class::Repeat,
        }
    }
}

/// One generated job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Job line in the `JobSpec::parse` grammar.
    pub line: String,
    /// What the generator made it.
    pub kind: Kind,
}

/// Realization sets of the service probe's fresh job; its
/// [`Kind::RepeatFewerSets`] repeat keeps one.
pub const PROBE_SETS: usize = 4;

/// A fresh-job template.
#[derive(Debug, Clone, Copy)]
struct Template {
    lattice: &'static str,
    moments: usize,
    random: usize,
    sets: usize,
    /// Extra `key=value` tokens, such as disorder and bounds.
    extra: &'static str,
    /// Whether each fresh job draws its own disorder seed (`dseed`).
    disordered: bool,
}

const fn clean(lattice: &'static str, moments: usize, random: usize, sets: usize) -> Template {
    Template { lattice, moments, random, sets, extra: "", disordered: false }
}

/// `paper-lattice`: the Fig. 5/6 operator at R = 14, N across the paper's
/// range.
const PAPER: [Template; 3] = [
    clean("cubic:10,10,10", 256, 14, 2),
    clean("cubic:10,10,10", 512, 14, 2),
    clean("cubic:10,10,10", 1024, 14, 2),
];

/// `anderson-48`: a new W = 12 realization per fresh job.
const ANDERSON: [Template; 1] = [Template {
    lattice: "cubic:48,48,48",
    moments: 128,
    random: 8,
    sets: 1,
    extra: "disorder=12 bounds=lanczos:64",
    disordered: true,
}];

fn templates(workload: Workload) -> &'static [Template] {
    match workload {
        Workload::PaperLattice => &PAPER,
        Workload::Anderson48 => &ANDERSON,
    }
}

/// One position of a block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A fresh job from template `i`.
    Fresh(usize),
    /// A repeat of the latest fresh job from template `i`.
    Repeat(Kind, usize),
}

/// A workload's block. Its composition is every seed's job mix; its fixed
/// order keeps the mix of any prefix the same for every seed. A repeat
/// names a template whose fresh job comes earlier in the block, so the job
/// it repeats is always that block's, never repeated before.
fn block(workload: Workload) -> &'static [Slot] {
    use Kind::RepeatExact as Exact;
    use Slot::{Fresh, Repeat};
    match workload {
        // 6/8 fresh (N = 256, 512, 1024 twice), 2/8 exact repeats at N = 512.
        Workload::PaperLattice => &[
            Fresh(0),
            Fresh(1),
            Fresh(2),
            Repeat(Exact, 1),
            Fresh(0),
            Fresh(1),
            Fresh(2),
            Repeat(Exact, 1),
        ],
        // 3/4 new realizations, 1/4 exact repeats.
        Workload::Anderson48 => &[Fresh(0), Fresh(0), Fresh(0), Repeat(Exact, 0)],
    }
}

/// A fresh job, remembered so later repeats can name it.
#[derive(Debug, Clone, Copy)]
struct FreshJob {
    template: Template,
    seed: u64,
    dseed: u64,
}

impl FreshJob {
    fn line(&self, moments: usize, sets: usize) -> String {
        let t = &self.template;
        let mut line = format!(
            "lattice={} moments={moments} random={} sets={sets} seed={}",
            t.lattice, t.random, self.seed
        );
        if t.disordered {
            line += &format!(" dseed={}", self.dseed);
        }
        if !t.extra.is_empty() {
            line += " ";
            line += t.extra;
        }
        line
    }
}

/// The job stream of one session.
#[derive(Debug, Clone)]
pub struct JobStream {
    workload: Workload,
    seed_base: u64,
    session: u64,
    fresh_made: u64,
    /// The latest fresh job of each template.
    latest: Vec<Option<FreshJob>>,
    pending: VecDeque<Job>,
}

impl JobStream {
    /// The stream of `session` (0-based) of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, session: usize) -> Self {
        JobStream {
            workload,
            seed_base: Rng::new(seed).next_u64(),
            session: session as u64,
            fresh_made: 0,
            latest: vec![None; templates(workload).len()],
            pending: VecDeque::new(),
        }
    }

    /// Jobs per block: a phase that runs whole blocks runs every seed's
    /// job mix exactly.
    pub fn block_len(workload: Workload) -> usize {
        block(workload).len()
    }

    /// The workload's costliest template (moments x vectors) with the
    /// stream's first seeds.
    fn representative_job(workload: Workload, seed: u64) -> FreshJob {
        let t = *templates(workload)
            .iter()
            .max_by_key(|t| t.moments * t.random * t.sets)
            .expect("every workload has a template");
        JobStream::new(workload, seed, 0).fresh(t)
    }

    /// The line the per-layer probes run: the representative job.
    pub fn representative(workload: Workload, seed: u64) -> String {
        let job = JobStream::representative_job(workload, seed);
        job.line(job.template.moments, job.template.sets)
    }

    /// The jobs the service-layer probe submits in order: the
    /// representative job at [`PROBE_SETS`] sets, an exact repeat of it (a
    /// serve cache hit) and a repeat at one set (a serve cache miss whose
    /// rows the fleet holds warm, all on the worker that computed the
    /// fresh job's first shard).
    pub fn service_probe(workload: Workload, seed: u64) -> [Job; 3] {
        let job = JobStream::representative_job(workload, seed);
        let line = job.line(job.template.moments, PROBE_SETS);
        [
            Job { line: line.clone(), kind: Kind::Fresh },
            Job { line, kind: Kind::RepeatExact },
            Job {
                line: job.line(job.template.moments, PROBE_SETS / 4),
                kind: Kind::RepeatFewerSets,
            },
        ]
    }

    /// The next fresh job. Its seeds are the run's base plus a
    /// `(session, count)` offset, so no two fresh jobs of a run share one.
    fn fresh(&self, template: Template) -> FreshJob {
        let offset = (self.session << 40) | self.fresh_made;
        FreshJob {
            template,
            seed: self.seed_base.wrapping_add(offset),
            dseed: self.seed_base.rotate_left(32).wrapping_add(offset),
        }
    }

    /// The next job of the stream.
    pub fn next_job(&mut self) -> Job {
        if self.pending.is_empty() {
            self.fill_block();
        }
        self.pending.pop_front().expect("a block is never empty")
    }

    fn fill_block(&mut self) {
        for &slot in block(self.workload) {
            let job = match slot {
                Slot::Fresh(i) => {
                    let fresh = self.fresh(templates(self.workload)[i]);
                    self.fresh_made += 1;
                    self.latest[i] = Some(fresh);
                    let line = fresh.line(fresh.template.moments, fresh.template.sets);
                    Job { line, kind: Kind::Fresh }
                }
                Slot::Repeat(kind, i) => {
                    let target = self.latest[i].expect("a block repeats only earlier templates");
                    let t = target.template;
                    Job { line: target.line(t.moments, t.sets), kind }
                }
            };
            self.pending.push_back(job);
        }
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        Some(self.next_job())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpm_serve::JobSpec;

    fn take(workload: Workload, seed: u64, session: usize, n: usize) -> Vec<Job> {
        JobStream::new(workload, seed, session).take(n).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        for w in Workload::ALL {
            assert_eq!(take(w, 9, 0, 100), take(w, 9, 0, 100), "{}", w.name());
            assert_ne!(take(w, 9, 0, 100), take(w, 10, 0, 100), "{}", w.name());
            assert_ne!(take(w, 9, 0, 100), take(w, 9, 1, 100), "{}", w.name());
        }
    }

    #[test]
    fn every_block_has_the_documented_mix() {
        // Per block: fresh jobs and exact repeats.
        let mixes = [(Workload::PaperLattice, 8, [6, 2]), (Workload::Anderson48, 4, [3, 1])];
        let kinds = [Kind::Fresh, Kind::RepeatExact];
        for (w, size, mix) in mixes {
            assert_eq!(JobStream::block_len(w), size, "{}", w.name());
            for chunk in take(w, 4, 0, size * 12).chunks(size) {
                let counts = kinds.map(|k| chunk.iter().filter(|j| j.kind == k).count());
                assert_eq!(counts, mix, "{}", w.name());
            }
        }
    }

    #[test]
    fn every_line_parses_and_repeats_derive_from_earlier_fresh_jobs() {
        for w in Workload::ALL {
            let mut fresh: Vec<JobSpec> = Vec::new();
            for job in take(w, 21, 1, 96) {
                let spec =
                    JobSpec::parse(&job.line).unwrap_or_else(|e| panic!("{}: {e}", job.line));
                let derives = |f: &JobSpec| match job.kind {
                    Kind::Fresh => f.cache_key() == spec.cache_key(),
                    Kind::RepeatExact | Kind::RepeatFewerSets => f.canonical() == spec.canonical(),
                };
                let earlier = fresh.iter().any(derives);
                match job.kind.class() {
                    Class::Fresh => {
                        assert!(!earlier, "a fresh job reuses a cache key: {}", job.line);
                        fresh.push(spec);
                    }
                    Class::Repeat => assert!(earlier, "a repeat of nothing: {}", job.line),
                }
            }
        }
    }

    #[test]
    fn the_service_probe_repeats_its_fresh_job() {
        for w in Workload::ALL {
            let [fresh, exact, fewer] = JobStream::service_probe(w, 5);
            let kinds = [fresh.kind, exact.kind, fewer.kind];
            assert_eq!(kinds, [Kind::Fresh, Kind::RepeatExact, Kind::RepeatFewerSets]);
            assert_eq!(exact.line, fresh.line);
            let (fresh, fewer) =
                (JobSpec::parse(&fresh.line).unwrap(), JobSpec::parse(&fewer.line).unwrap());
            assert_eq!(fresh.num_realizations, PROBE_SETS);
            assert_eq!(fewer.num_realizations, PROBE_SETS / 4);
            assert_eq!(
                JobSpec { num_realizations: PROBE_SETS, ..fewer }.canonical(),
                fresh.canonical()
            );
        }
    }
}
