//! Per-layer numbers from one traced frame: exact counts read off the
//! `Tracer` event stream, and the memory hierarchy's host time measured
//! by replaying the frame's `NodeFetch` stream through a fresh
//! `MemoryHierarchy::access`.
//!
//! The replay is exact: the RT unit calls `access(sm, addr, bytes, now)`
//! once per coalesced node fetch and nothing else touches the hierarchy
//! (child prefetching is off in the Table 1 config), so replaying the
//! fetches in emission order must return every recorded `ready_at`.
//! Any mismatch is reported as a failed check.

use cooprt_core::{FrameResult, GpuConfig, TraversalPolicy};
use cooprt_gpu::MemoryHierarchy;
use cooprt_scenes::Scene;
use cooprt_telemetry::{AccessOutcome, CacheLevel, EventKind, TraceLog, Tracer};
use std::time::Instant;

/// Event-buffer limit of the traced pass: far above any frame of the
/// workloads, so nothing is ever dropped (which is checked).
const TRACE_CAPACITY: usize = 100_000_000;

/// Exact counts of one or more frames, from their event streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub warps: u64,
    pub trace_instrs: u64,
    pub node_fetches: u64,
    pub fetch_threads: u64,
    pub response_pops: u64,
    pub lbu_moves: u64,
    pub l1_accesses: u64,
    pub l1_hits: u64,
    pub l1_merges: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub dram_bytes: u64,
    pub reorder_passes: u64,
    pub reorder_moved: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.warps += o.warps;
        self.trace_instrs += o.trace_instrs;
        self.node_fetches += o.node_fetches;
        self.fetch_threads += o.fetch_threads;
        self.response_pops += o.response_pops;
        self.lbu_moves += o.lbu_moves;
        self.l1_accesses += o.l1_accesses;
        self.l1_hits += o.l1_hits;
        self.l1_merges += o.l1_merges;
        self.l2_accesses += o.l2_accesses;
        self.l2_hits += o.l2_hits;
        self.dram_bytes += o.dram_bytes;
        self.reorder_passes += o.reorder_passes;
        self.reorder_moved += o.reorder_moved;
    }
}

/// The per-layer reading of one traced frame.
#[derive(Debug, Default)]
pub struct CellLayers {
    pub counts: Counts,
    /// Host seconds of the `NodeFetch` replay through `MemoryHierarchy::access`.
    pub replay_s: f64,
    /// Failed checks: dropped events, replay mismatches, counts that
    /// disagree with the frame's own statistics.
    pub problems: Vec<String>,
}

/// Reads one frame's event log: counts every event family and replays
/// the node fetches through a fresh memory hierarchy built from `cfg`.
fn analyse(log: &TraceLog, frame: &FrameResult, scene: &Scene, cfg: &GpuConfig) -> CellLayers {
    let mut out = CellLayers::default();
    if log.dropped != 0 {
        out.problems
            .push(format!("{} trace events dropped", log.dropped));
    }
    let c = &mut out.counts;
    let mut fetches: Vec<(u64, usize, u64, u32, u64)> = Vec::new();
    for e in &log.events {
        match e.kind {
            EventKind::WarpIssue { .. } => c.warps += 1,
            EventKind::TraceBegin { .. } => c.trace_instrs += 1,
            EventKind::NodeFetch {
                sm,
                addr,
                threads,
                ready_at,
                ..
            } => {
                c.node_fetches += 1;
                c.fetch_threads += u64::from(threads);
                let bytes = scene
                    .image
                    .node_at(addr)
                    .expect("fetched nodes exist in the scene's BVH")
                    .size_bytes();
                fetches.push((e.cycle, sm as usize, addr, bytes, ready_at));
            }
            EventKind::ResponsePop { .. } => c.response_pops += 1,
            EventKind::LbuMove { .. } => c.lbu_moves += 1,
            EventKind::CacheAccess { level, outcome, .. } => {
                let (acc, hits) = match level {
                    CacheLevel::L1 => (&mut c.l1_accesses, &mut c.l1_hits),
                    CacheLevel::L2 => (&mut c.l2_accesses, &mut c.l2_hits),
                };
                *acc += 1;
                match outcome {
                    AccessOutcome::Hit => *hits += 1,
                    AccessOutcome::MshrMerge if level == CacheLevel::L1 => c.l1_merges += 1,
                    AccessOutcome::MshrMerge | AccessOutcome::Miss => {}
                }
            }
            EventKind::DramBusy { bytes, .. } => c.dram_bytes += u64::from(bytes),
            EventKind::Reorder { moved, .. } => {
                c.reorder_passes += 1;
                c.reorder_moved += u64::from(moved);
            }
            EventKind::WarpRetire { .. }
            | EventKind::TraceEnd { .. }
            | EventKind::Request { .. }
            | EventKind::Predict { .. } => {}
        }
    }

    // The event stream must agree with the frame's own statistics.
    let agree = [
        ("L1 accesses", c.l1_accesses, frame.mem.l1.accesses),
        ("L2 accesses", c.l2_accesses, frame.mem.l2.accesses),
        ("DRAM bytes", c.dram_bytes, frame.mem.dram_bytes),
        ("LBU moves", c.lbu_moves, frame.events.lbu_moves),
        (
            "trace instructions",
            c.trace_instrs,
            frame.events.trace_instructions,
        ),
        ("reorder passes", c.reorder_passes, frame.reorder.passes),
        ("rays moved", c.reorder_moved, frame.reorder.rays_moved),
    ];
    for (what, events, stats) in agree {
        if events != stats {
            out.problems.push(format!(
                "{what}: {events} in the event stream, {stats} in the frame"
            ));
        }
    }

    let mut mem = MemoryHierarchy::new(&cfg.mem);
    let mut mismatches = 0u64;
    let start = Instant::now();
    for &(cycle, sm, addr, bytes, ready_at) in &fetches {
        let got = mem.access(sm, addr, bytes, cycle);
        mismatches += u64::from(got != ready_at);
    }
    out.replay_s = start.elapsed().as_secs_f64();
    if mismatches != 0 {
        out.problems.push(format!(
            "memory replay returned a different cycle for {mismatches} of {} fetches",
            fetches.len()
        ));
    }
    out
}

/// One cell of the traced pass.
pub struct Measured {
    /// The untraced run's result.
    pub frame: FrameResult,
    /// Host seconds of the untraced run.
    pub engine_s: f64,
    /// Host seconds of the traced run.
    pub traced_s: f64,
    pub layers: CellLayers,
}

/// Runs a cell untraced, for its engine time, then with an enabled
/// tracer, and analyses the traced run's events. `run` simulates the
/// cell with the given tracer installed, or none.
pub fn measure(
    scene: &Scene,
    cfg: &GpuConfig,
    run: impl Fn(Option<&Tracer>) -> FrameResult,
) -> Measured {
    let t = Instant::now();
    let frame = run(None);
    let engine_s = t.elapsed().as_secs_f64();
    let tracer = Tracer::with_capacity(TRACE_CAPACITY);
    let t = Instant::now();
    let traced = run(Some(&tracer));
    let traced_s = t.elapsed().as_secs_f64();
    let mut layers = analyse(&tracer.take(), &traced, scene, cfg);
    if traced.cycles != frame.cycles
        || traced.image != frame.image
        || traced.query_results != frame.query_results
    {
        layers
            .problems
            .push("tracing changed the simulated result".to_string());
    }
    Measured {
        frame,
        engine_s,
        traced_s,
        layers,
    }
}

/// Per-layer sums over every traced frame of a workload.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Host seconds in `SceneId::build`.
    pub build_s: f64,
    baseline_s: f64,
    cooprt_s: f64,
    traced_s: f64,
    replay_s: f64,
    rays: u64,
    answer_entries: u64,
    counts: Counts,
}

impl LayerTotals {
    /// Adds one measured cell run under `policy`.
    pub fn add(&mut self, policy: TraversalPolicy, m: &Measured) {
        match policy {
            TraversalPolicy::Baseline => self.baseline_s += m.engine_s,
            TraversalPolicy::CoopRt => self.cooprt_s += m.engine_s,
        }
        self.traced_s += m.traced_s;
        self.replay_s += m.layers.replay_s;
        self.rays += m.frame.rays;
        self.answer_entries += m
            .frame
            .query_results
            .iter()
            .map(|a| a.len() as u64)
            .sum::<u64>();
        self.counts.add(&m.layers.counts);
    }

    /// The simulator-layer metrics, `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let engine_s = self.baseline_s + self.cooprt_s;
        let c = &self.counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("scenes.build_s", self.build_s, "s"),
            ("engine.baseline_s", self.baseline_s, "s"),
            ("engine.cooprt_s", self.cooprt_s, "s"),
            (
                "engine.ns_per_ray",
                engine_s * 1e9 / self.rays.max(1) as f64,
                "ns",
            ),
            ("engine.non_mem_s", engine_s - self.replay_s, "s"),
            ("trace.overhead_s", self.traced_s - engine_s, "s"),
            ("mem.replay_s", self.replay_s, "s"),
            (
                "mem.ns_per_fetch",
                self.replay_s * 1e9 / c.node_fetches.max(1) as f64,
                "ns",
            ),
            ("mem.share", self.replay_s / engine_s.max(1e-12), "ratio"),
            ("engine.rays", self.rays as f64, "count"),
            ("engine.warps", c.warps as f64, "count"),
            ("engine.trace_instrs", c.trace_instrs as f64, "count"),
            ("rtunit.node_fetches", c.node_fetches as f64, "count"),
            (
                "rtunit.threads_per_fetch",
                ratio(c.fetch_threads, c.node_fetches),
                "ratio",
            ),
            ("rtunit.response_pops", c.response_pops as f64, "count"),
            ("lbu.moves", c.lbu_moves as f64, "count"),
            ("mem.l1_accesses", c.l1_accesses as f64, "count"),
            ("mem.l1_hit_rate", ratio(c.l1_hits, c.l1_accesses), "ratio"),
            ("mem.l1_mshr_merges", c.l1_merges as f64, "count"),
            ("mem.l2_accesses", c.l2_accesses as f64, "count"),
            ("mem.l2_hit_rate", ratio(c.l2_hits, c.l2_accesses), "ratio"),
            ("mem.dram_bytes", c.dram_bytes as f64, "bytes"),
            ("reorder.passes", c.reorder_passes as f64, "count"),
            ("reorder.rays_moved", c.reorder_moved as f64, "count"),
            ("query.answer_entries", self.answer_entries as f64, "count"),
        ]
    }
}
