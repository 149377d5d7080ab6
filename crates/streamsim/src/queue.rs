//! Command-queue device pipeline: a discrete-event replacement for the
//! closed-form run pricing.
//!
//! The analytic estimate (`setup + upload + generation + reduction +
//! download`, see [`StageTimes::analytic_total`]) cannot express
//! transfer/compute **overlap**, multi-stream concurrency, or multi-device
//! scaling — the axes that shape real stream-computing performance. This
//! module models a device the way the hardware works instead: commands are
//! submitted to per-engine FIFO queues and consumed by three independent
//! engines —
//!
//! * `dma` — host↔device transfers (one engine: half-duplex PCIe),
//! * `compute` — kernel launches,
//! * `reduce` — the reduction launch lane,
//!
//! with dependencies between commands expressed as completion events. An
//! event-heap scheduler advances modeled time: whenever an engine is idle
//! and the command at the head of its queue has all dependencies complete,
//! the command starts; its completion is pushed onto a binary heap keyed by
//! finish time (ties broken by submission order, so the schedule is a pure
//! function of the submitted commands — deterministic across runs and
//! thread counts).
//!
//! On top sits [`MomentRunPlan`]: it compiles one KPM moments run (priced
//! by the same [`GpuSpec`] roofline primitives as before) into a command
//! stream. With overlap disabled the stream is the strict chain
//! `setup → upload → generation → reduction → download`, whose makespan
//! equals the retired analytic sum *exactly* (same additions in the same
//! order). With overlap enabled the upload and generation stages are split
//! into per-realization-block chunks so the H2D copy of block `k+1` runs
//! while block `k` computes — pipelining can only remove dead time, never
//! add it, because chunk durations are exact divisions of the stage totals.
//! Multi-device plans split realizations owner-computes across `n` device
//! instances (device `i` takes `sr/n` plus one of the first `sr mod n`
//! remainders) and the run completes when the slowest device does.

use crate::model::{GpuSpec, SimTime};
use crate::shape::MomentLaunchShape;
use std::collections::BinaryHeap;

/// The engine a command executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Host↔device transfer engine (half-duplex).
    Dma,
    /// Kernel-execution engine.
    Compute,
    /// Reduction lane.
    Reduce,
}

impl EngineKind {
    /// All engines, in queue-index order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Dma, EngineKind::Compute, EngineKind::Reduce];

    fn index(self) -> usize {
        match self {
            EngineKind::Dma => 0,
            EngineKind::Compute => 1,
            EngineKind::Reduce => 2,
        }
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Dma => "dma",
            EngineKind::Compute => "compute",
            EngineKind::Reduce => "reduce",
        }
    }
}

/// Identifier of a submitted command; also its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CmdId(pub usize);

/// One queued command.
#[derive(Debug, Clone)]
pub struct Command {
    /// Consuming engine.
    pub engine: EngineKind,
    /// Modeled execution time.
    pub duration: SimTime,
    /// Human-readable label for traces.
    pub label: &'static str,
    /// Commands whose completion must precede this one's start (on top of
    /// the engine's in-order FIFO constraint).
    pub deps: Vec<CmdId>,
}

/// Start/finish record of one executed command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandTrace {
    /// The command.
    pub id: CmdId,
    /// Engine it ran on.
    pub engine: EngineKind,
    /// Label it was submitted with.
    pub label: &'static str,
    /// Modeled start time.
    pub start: SimTime,
    /// Modeled finish time.
    pub finish: SimTime,
}

/// Per-engine busy time of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineBusy {
    /// DMA engine busy time.
    pub dma: SimTime,
    /// Compute engine busy time.
    pub compute: SimTime,
    /// Reduce engine busy time.
    pub reduce: SimTime,
}

impl EngineBusy {
    /// Busy time of one engine.
    pub fn of(&self, engine: EngineKind) -> SimTime {
        match engine {
            EngineKind::Dma => self.dma,
            EngineKind::Compute => self.compute,
            EngineKind::Reduce => self.reduce,
        }
    }
}

/// Result of running a pipeline to completion.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Modeled end-to-end time (finish of the last command).
    pub makespan: SimTime,
    /// Sum of all command durations — what a fully serialized device would
    /// take. `makespan <= serial_total` always.
    pub serial_total: SimTime,
    /// Busy time per engine.
    pub busy: EngineBusy,
    /// Start/finish of every command, in completion order.
    pub traces: Vec<CommandTrace>,
}

impl PipelineReport {
    /// Overlap win: `serial_total / makespan` (`>= 1`).
    pub fn overlap_speedup(&self) -> f64 {
        if self.makespan.as_secs_f64() == 0.0 {
            1.0
        } else {
            self.serial_total.as_secs_f64() / self.makespan.as_secs_f64()
        }
    }
}

/// A per-device command queue set with an event-heap scheduler.
///
/// Commands are submitted up front ([`DevicePipeline::submit`]) and the
/// whole queue is then run to completion ([`DevicePipeline::run`]). Each
/// engine executes its own commands strictly in submission order; a
/// command additionally waits for its explicit dependencies.
#[derive(Debug, Default, Clone)]
pub struct DevicePipeline {
    commands: Vec<Command>,
}

/// Completion event: ordered by finish time, ties by submission sequence.
/// `BinaryHeap` is a max-heap, so orderings are reversed.
struct Completion {
    finish: f64,
    id: usize,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.id == other.id
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earliest finish first; earliest submission breaks ties.
        other.finish.total_cmp(&self.finish).then_with(|| other.id.cmp(&self.id))
    }
}

impl DevicePipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a command and returns its id (usable as a dependency for
    /// later submissions).
    ///
    /// # Panics
    /// Panics if a dependency refers to a not-yet-submitted command:
    /// dependencies must point backwards, which is what makes the event
    /// graph acyclic by construction.
    pub fn submit(
        &mut self,
        engine: EngineKind,
        duration: SimTime,
        label: &'static str,
        deps: &[CmdId],
    ) -> CmdId {
        let id = CmdId(self.commands.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency {:?} submitted after {id:?}", d);
        }
        self.commands.push(Command { engine, duration, label, deps: deps.to_vec() });
        id
    }

    /// Number of queued commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// `true` if no commands are queued.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Runs every queued command to completion and reports the schedule.
    ///
    /// The scheduler is a single-threaded discrete-event loop over a binary
    /// heap of completion events; modeled time is a pure function of the
    /// submitted commands.
    pub fn run(&self) -> PipelineReport {
        let n = self.commands.len();
        // Per-engine FIFO: command indices in submission order.
        let mut queues: [std::collections::VecDeque<usize>; 3] = Default::default();
        for (i, c) in self.commands.iter().enumerate() {
            queues[c.engine.index()].push_back(i);
        }
        let mut finished = vec![false; n];
        let mut engine_busy = [0.0_f64; 3];
        let mut traces = Vec::with_capacity(n);
        let mut heap: BinaryHeap<Completion> = BinaryHeap::new();
        let mut engine_running = [false; 3];
        let mut clock = 0.0_f64;
        let mut completed = 0usize;

        // Tries to start the head command of each idle engine; `clock` is
        // the earliest admissible start.
        let try_dispatch = |queues: &mut [std::collections::VecDeque<usize>; 3],
                            engine_running: &mut [bool; 3],
                            engine_busy: &mut [f64; 3],
                            finished: &[bool],
                            heap: &mut BinaryHeap<Completion>,
                            traces: &mut Vec<CommandTrace>,
                            commands: &[Command],
                            clock: f64| {
            for e in 0..3 {
                if engine_running[e] {
                    continue;
                }
                let Some(&head) = queues[e].front() else { continue };
                let cmd = &commands[head];
                if !cmd.deps.iter().all(|d| finished[d.0]) {
                    continue;
                }
                // Ready: start at the current clock (deps finished at or
                // before it, and the engine is idle now).
                queues[e].pop_front();
                engine_running[e] = true;
                let start = clock;
                let finish = start + cmd.duration.as_secs_f64();
                engine_busy[e] += cmd.duration.as_secs_f64();
                traces.push(CommandTrace {
                    id: CmdId(head),
                    engine: cmd.engine,
                    label: cmd.label,
                    start: SimTime(start),
                    finish: SimTime(finish),
                });
                heap.push(Completion { finish, id: head });
            }
        };

        try_dispatch(
            &mut queues,
            &mut engine_running,
            &mut engine_busy,
            &finished,
            &mut heap,
            &mut traces,
            &self.commands,
            clock,
        );

        while completed < n {
            let ev = heap.pop().expect("pipeline deadlock: no runnable command");
            clock = ev.finish;
            finished[ev.id] = true;
            engine_running[self.commands[ev.id].engine.index()] = false;
            completed += 1;
            try_dispatch(
                &mut queues,
                &mut engine_running,
                &mut engine_busy,
                &finished,
                &mut heap,
                &mut traces,
                &self.commands,
                clock,
            );
        }

        let serial_total: SimTime = self.commands.iter().map(|c| c.duration).sum();
        PipelineReport {
            makespan: SimTime(clock),
            serial_total,
            busy: EngineBusy {
                dma: SimTime(engine_busy[0]),
                compute: SimTime(engine_busy[1]),
                reduce: SimTime(engine_busy[2]),
            },
            traces,
        }
    }
}

/// Per-stage modeled durations of one moments run — the same five numbers
/// the analytic model summed, now priced individually so the pipeline can
/// schedule them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// Context/allocation setup.
    pub setup: SimTime,
    /// Host→device matrix transfer.
    pub upload: SimTime,
    /// Moment-generation launch.
    pub generation: SimTime,
    /// Moment-reduction launch.
    pub reduction: SimTime,
    /// Device→host moments transfer.
    pub download: SimTime,
}

impl StageTimes {
    /// Prices the five stages of `shape` on `spec` — identical arithmetic
    /// to the retired closed-form estimate, stage by stage.
    pub fn price(shape: &MomentLaunchShape, spec: &GpuSpec, compute_efficiency: f64) -> Self {
        let generation = spec.kernel_time(
            &shape.kernel_cost(spec),
            shape.grid_blocks(),
            shape.threads_per_block(),
            compute_efficiency,
        );
        let reduction = spec.kernel_time(
            &shape.reduce_cost(),
            shape.num_moments,
            shape.block_size.min(spec.max_threads_per_block),
            compute_efficiency,
        );
        StageTimes {
            setup: spec.setup_overhead,
            upload: spec.transfer_time(shape.matrix_bytes() as usize),
            generation,
            reduction,
            download: spec.transfer_time(8 * shape.num_moments),
        }
    }

    /// Analytic sum-of-stages total, in the canonical order
    /// `setup + upload + generation + reduction + download`.
    pub fn analytic_total(&self) -> SimTime {
        self.setup + self.upload + self.generation + self.reduction + self.download
    }
}

/// A compiled moments run: shape × overlap policy × chunking × device
/// count. [`MomentRunPlan::run`] prices it through the event pipeline.
#[derive(Debug, Clone, Copy)]
pub struct MomentRunPlan {
    /// Launch shape of the full run (all realizations).
    pub shape: MomentLaunchShape,
    /// Whether upload/compute overlap is enabled.
    pub overlap: bool,
    /// Realization blocks the overlapped stages are split into (>= 1;
    /// ignored when `overlap` is off).
    pub chunks: usize,
    /// Device instances fed by the owner-computes splitter (>= 1).
    pub devices: usize,
}

/// Report of a multi-device pipelined run.
#[derive(Debug, Clone)]
pub struct MomentRunReport {
    /// End-to-end modeled time: the slowest device's makespan.
    pub total: SimTime,
    /// Sum-of-stages analytic total of the *undivided* run (what one
    /// device without overlap would take).
    pub serial_total: SimTime,
    /// Per-device pipeline reports, in device order.
    pub per_device: Vec<PipelineReport>,
}

impl MomentRunPlan {
    /// A single-device overlapping plan with the default chunking.
    pub fn new(shape: MomentLaunchShape) -> Self {
        Self { shape, overlap: true, chunks: 4, devices: 1 }
    }

    /// Enables or disables transfer/compute overlap.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Sets the chunk count for the overlapped stages.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "chunk count must be positive");
        self.chunks = chunks;
        self
    }

    /// Sets the device count for the owner-computes splitter.
    ///
    /// # Panics
    /// Panics if zero.
    pub fn with_devices(mut self, devices: usize) -> Self {
        assert!(devices > 0, "device count must be positive");
        self.devices = devices;
        self
    }

    /// Compiles the single-device command stream for `reals` realizations.
    fn build_pipeline(&self, reals: usize, spec: &GpuSpec, eff: f64) -> DevicePipeline {
        let shape = MomentLaunchShape { realizations: reals, ..self.shape };
        let stages = StageTimes::price(&shape, spec, eff);
        let mut p = DevicePipeline::new();
        let setup = p.submit(EngineKind::Dma, stages.setup, "setup", &[]);
        if !self.overlap || self.chunks == 1 {
            // Strict chain: the makespan reproduces the analytic sum
            // exactly (same additions, same order).
            let up = p.submit(EngineKind::Dma, stages.upload, "upload", &[setup]);
            let gen = p.submit(EngineKind::Compute, stages.generation, "generation", &[up]);
            let red = p.submit(EngineKind::Reduce, stages.reduction, "reduction", &[gen]);
            p.submit(EngineKind::Dma, stages.download, "download", &[red]);
        } else {
            // Split upload and generation into `chunks` realization blocks:
            // upload of block k+1 overlaps generation of block k. Chunk
            // durations are exact divisions of the stage totals (no
            // per-chunk overhead is added), so the pipelined makespan can
            // never exceed the serial chain.
            let c = self.chunks;
            let up_chunk = SimTime(stages.upload.as_secs_f64() / c as f64);
            let gen_chunk = SimTime(stages.generation.as_secs_f64() / c as f64);
            let mut last_gen = setup;
            for _ in 0..c {
                let up = p.submit(EngineKind::Dma, up_chunk, "upload", &[setup]);
                // In-order FIFO already serializes generation chunks; the
                // explicit dep expresses "block k needs its own upload".
                last_gen = p.submit(EngineKind::Compute, gen_chunk, "generation", &[up]);
            }
            let red = p.submit(EngineKind::Reduce, stages.reduction, "reduction", &[last_gen]);
            p.submit(EngineKind::Dma, stages.download, "download", &[red]);
        }
        p
    }

    /// Realizations owned by device `i` of `n`: `sr/n` plus one of the
    /// first `sr mod n` remainders (owner-computes round-robin).
    pub fn device_share(total: usize, device: usize, devices: usize) -> usize {
        total / devices + usize::from(device < total % devices)
    }

    /// Prices an owner-computes split across exactly `devices` instances
    /// (devices with a zero share are skipped).
    fn run_split(
        &self,
        devices: usize,
        spec: &GpuSpec,
        compute_efficiency: f64,
    ) -> MomentRunReport {
        let sr = self.shape.realizations;
        let mut per_device = Vec::with_capacity(devices);
        let mut total = SimTime::ZERO;
        for i in 0..devices {
            let share = Self::device_share(sr, i, devices);
            if share == 0 {
                continue;
            }
            let report = self.build_pipeline(share, spec, compute_efficiency).run();
            if report.makespan.as_secs_f64() > total.as_secs_f64() {
                total = report.makespan;
            }
            per_device.push(report);
        }
        let serial_total =
            StageTimes::price(&self.shape, spec, compute_efficiency).analytic_total();
        MomentRunReport { total, serial_total, per_device }
    }

    /// Runs the plan through the event pipeline.
    ///
    /// With `n` devices the splitter prices every owner-computes split over
    /// `1..=n` instances and keeps the fastest (ties resolve to the fewest
    /// devices). An `n`-device system can always execute an `m < n` split
    /// by leaving devices idle, so this is what a work-placing scheduler
    /// would do — and it makes the modeled total provably non-increasing in
    /// the device count, even where per-device block-granularity effects
    /// (a share of `ceil(sr/n)` realizations occupying proportionally fewer
    /// thread blocks) would make the forced full split marginally slower.
    pub fn run(&self, spec: &GpuSpec, compute_efficiency: f64) -> MomentRunReport {
        let mut best: Option<MomentRunReport> = None;
        for m in 1..=self.devices {
            let candidate = self.run_split(m, spec, compute_efficiency);
            let better = match &best {
                None => true,
                Some(b) => candidate.total.as_secs_f64() < b.total.as_secs_f64(),
            };
            if better {
                best = Some(candidate);
            }
        }
        best.expect("device count is validated positive")
    }

    /// Convenience: end-to-end modeled time only.
    pub fn total(&self, spec: &GpuSpec, compute_efficiency: f64) -> SimTime {
        self.run(spec, compute_efficiency).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Mapping, VectorLayout};
    use crate::shape::{Precision, SparseFormat};
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn paper_shape(n: usize, reals: usize) -> MomentLaunchShape {
        MomentLaunchShape {
            dim: 1000,
            stored_entries: 7000,
            dense: false,
            format: SparseFormat::Csr,
            num_moments: n,
            realizations: reals,
            mapping: Mapping::ThreadPerRealization,
            layout: VectorLayout::Interleaved,
            block_size: 128,
            precision: Precision::Double,
        }
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut p = DevicePipeline::new();
        let a = p.submit(EngineKind::Dma, t(1.0), "a", &[]);
        let b = p.submit(EngineKind::Compute, t(2.0), "b", &[a]);
        p.submit(EngineKind::Dma, t(0.5), "c", &[b]);
        let r = p.run();
        assert_eq!(r.makespan, t(3.5));
        assert_eq!(r.serial_total, t(3.5));
        assert_eq!(r.busy.dma, t(1.5));
        assert_eq!(r.busy.compute, t(2.0));
        assert_eq!(r.busy.reduce, SimTime::ZERO);
    }

    #[test]
    fn independent_engines_overlap() {
        let mut p = DevicePipeline::new();
        p.submit(EngineKind::Dma, t(1.0), "copy", &[]);
        p.submit(EngineKind::Compute, t(1.0), "kernel", &[]);
        let r = p.run();
        assert_eq!(r.makespan, t(1.0), "independent engines must run concurrently");
        assert_eq!(r.serial_total, t(2.0));
        assert!((r.overlap_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_engine_serializes_in_fifo_order() {
        let mut p = DevicePipeline::new();
        p.submit(EngineKind::Dma, t(1.0), "h2d", &[]);
        p.submit(EngineKind::Dma, t(1.0), "d2h", &[]);
        let r = p.run();
        assert_eq!(r.makespan, t(2.0), "one DMA engine is half-duplex");
        // FIFO: first submitted starts first.
        assert_eq!(r.traces[0].label, "h2d");
        assert_eq!(r.traces[0].start, SimTime::ZERO);
        assert_eq!(r.traces[1].start, t(1.0));
    }

    #[test]
    fn dependency_delays_start_across_engines() {
        let mut p = DevicePipeline::new();
        let copy = p.submit(EngineKind::Dma, t(2.0), "copy", &[]);
        p.submit(EngineKind::Compute, t(1.0), "kernel", &[copy]);
        let r = p.run();
        assert_eq!(r.makespan, t(3.0));
        let kernel = r.traces.iter().find(|c| c.label == "kernel").unwrap();
        assert_eq!(kernel.start, t(2.0));
    }

    #[test]
    fn pipelined_chunks_overlap_copy_and_compute() {
        // Classic 4-chunk pipeline: upload 1 s, compute 2 s, each split in
        // 4. Makespan = first chunk upload (0.25) + full compute (2.0).
        let mut p = DevicePipeline::new();
        for _ in 0..4 {
            let up = p.submit(EngineKind::Dma, t(0.25), "up", &[]);
            p.submit(EngineKind::Compute, t(0.5), "gen", &[up]);
        }
        let r = p.run();
        assert!((r.makespan.as_secs_f64() - 2.25).abs() < 1e-12, "{:?}", r.makespan);
    }

    #[test]
    #[should_panic(expected = "submitted after")]
    fn forward_dependency_rejected() {
        let mut p = DevicePipeline::new();
        p.submit(EngineKind::Dma, t(1.0), "a", &[CmdId(5)]);
    }

    #[test]
    fn empty_pipeline_runs_to_zero() {
        let p = DevicePipeline::new();
        let r = p.run();
        assert_eq!(r.makespan, SimTime::ZERO);
        assert!(r.traces.is_empty());
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn overlap_off_equals_analytic_sum_exactly() {
        // Not within tolerance: bit-for-bit, because the event chain
        // performs the same additions in the same order.
        let spec = GpuSpec::tesla_c2050();
        for n in [128, 256, 1024] {
            let shape = paper_shape(n, 1792);
            let analytic = StageTimes::price(&shape, &spec, 0.2).analytic_total();
            let piped = MomentRunPlan::new(shape).with_overlap(false).total(&spec, 0.2);
            assert_eq!(piped.as_secs_f64(), analytic.as_secs_f64(), "N={n}");
        }
    }

    #[test]
    fn overlap_reduces_time_by_hidden_upload() {
        let spec = GpuSpec::tesla_c2050();
        let shape = paper_shape(512, 1792);
        let serial = MomentRunPlan::new(shape).with_overlap(false).total(&spec, 0.2);
        let piped = MomentRunPlan::new(shape).with_chunks(4).total(&spec, 0.2);
        assert!(piped.as_secs_f64() < serial.as_secs_f64());
        // The win is bounded by the upload stage (that is all overlap can
        // hide in this command stream).
        let stages = StageTimes::price(&shape, &spec, 0.2);
        assert!(serial.as_secs_f64() - piped.as_secs_f64() <= stages.upload.as_secs_f64() + 1e-12);
    }

    #[test]
    fn multi_device_splits_and_is_monotone() {
        let spec = GpuSpec::tesla_c2050();
        let shape = paper_shape(512, 1792);
        let mut last = f64::INFINITY;
        for devices in [1, 2, 4, 8] {
            let total =
                MomentRunPlan::new(shape).with_devices(devices).total(&spec, 0.2).as_secs_f64();
            assert!(
                total <= last + 1e-12,
                "{devices} devices must not be slower: {total} vs {last}"
            );
            last = total;
        }
    }

    #[test]
    fn device_share_is_owner_computes() {
        assert_eq!(MomentRunPlan::device_share(10, 0, 3), 4);
        assert_eq!(MomentRunPlan::device_share(10, 1, 3), 3);
        assert_eq!(MomentRunPlan::device_share(10, 2, 3), 3);
        let total: usize = (0..7).map(|i| MomentRunPlan::device_share(1792, i, 7)).sum();
        assert_eq!(total, 1792);
    }

    #[test]
    fn more_devices_than_realizations_skips_idle_devices() {
        let spec = GpuSpec::test_gpu();
        let shape = paper_shape(16, 2);
        let report = MomentRunPlan::new(shape).with_devices(8).run(&spec, 0.2);
        assert_eq!(report.per_device.len(), 2, "only owning devices run");
        assert!(report.total.as_secs_f64() > 0.0);
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(EngineKind::Dma.as_str(), "dma");
        assert_eq!(EngineKind::Compute.as_str(), "compute");
        assert_eq!(EngineKind::Reduce.as_str(), "reduce");
        assert_eq!(EngineKind::ALL.len(), 3);
    }

    proptest! {
        /// Overlap-off pipelined total equals the analytic sum within 1e-9
        /// for arbitrary shapes (it is exactly equal; the tolerance is the
        /// contract).
        #[test]
        fn prop_overlap_off_matches_analytic(
            n in 2usize..1024,
            reals in 1usize..4096,
            dim in 8usize..4096,
        ) {
            let spec = GpuSpec::tesla_c2050();
            let shape = MomentLaunchShape {
                dim,
                stored_entries: 7 * dim,
                ..paper_shape(n, reals)
            };
            let analytic = StageTimes::price(&shape, &spec, 0.2).analytic_total();
            let piped = MomentRunPlan::new(shape).with_overlap(false).total(&spec, 0.2);
            prop_assert!((piped.as_secs_f64() - analytic.as_secs_f64()).abs() < 1e-9);
        }

        /// Enabling overlap never increases modeled time, for any chunking.
        #[test]
        fn prop_overlap_never_slower(
            n in 2usize..512,
            reals in 1usize..4096,
            chunks in 1usize..16,
        ) {
            let spec = GpuSpec::tesla_c2050();
            let shape = paper_shape(n, reals);
            let serial = MomentRunPlan::new(shape).with_overlap(false).total(&spec, 0.2);
            let piped = MomentRunPlan::new(shape).with_chunks(chunks).total(&spec, 0.2);
            prop_assert!(piped.as_secs_f64() <= serial.as_secs_f64() + 1e-12);
        }

        /// Adding a device never increases the modeled total.
        #[test]
        fn prop_devices_monotone(
            reals in 1usize..4096,
            devices in 1usize..8,
        ) {
            let spec = GpuSpec::tesla_c2050();
            let shape = paper_shape(128, reals);
            let fewer = MomentRunPlan::new(shape).with_devices(devices).total(&spec, 0.2);
            let more = MomentRunPlan::new(shape).with_devices(devices + 1).total(&spec, 0.2);
            prop_assert!(more.as_secs_f64() <= fewer.as_secs_f64() + 1e-12);
        }
    }

    /// The scheduler's modeled clock is a pure function of the command
    /// stream: repeated runs (and runs from spawned threads) agree bitwise.
    #[test]
    fn modeled_clock_is_deterministic_across_runs_and_threads() {
        let spec = GpuSpec::tesla_c2050();
        let shape = paper_shape(512, 1792);
        let reference = MomentRunPlan::new(shape).total(&spec, 0.2).as_secs_f64();
        for _ in 0..3 {
            assert_eq!(MomentRunPlan::new(shape).total(&spec, 0.2).as_secs_f64(), reference);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let spec = GpuSpec::tesla_c2050();
                    MomentRunPlan::new(paper_shape(512, 1792)).total(&spec, 0.2).as_secs_f64()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference);
        }
    }
}
