//! The `render` and `query` workloads: a fixed matrix of simulator
//! cells (scene × policy [× reorder]), each cell one call into
//! `Simulation::run_frame` or `cooprt_query::run_queries`.
//!
//! The untraced pass times the matrix in whole rounds and checks every
//! cell's outputs. The traced pass runs each cell twice — untraced for
//! its engine time, then with an enabled `Tracer` — and hands the event
//! stream to [`crate::layers`] for the per-layer counts and the
//! memory-hierarchy replay.

use crate::layers::{self, LayerTotals};
use crate::stats::geomean;
use crate::{peak_rss_mb, Checks, Outcome};
use cooprt_bvh::traverse::brute_force_closest_hit;
use cooprt_core::{
    FrameResult, GpuConfig, ReorderPolicy, RtUnit, ShaderKind, Simulation, TraceQuery,
    TraversalPolicy,
};
use cooprt_gpu::MemoryHierarchy;
use cooprt_math::Ray;
use cooprt_scenes::{Scene, SceneId, ALL_SCENES, QUERY_SCENES};
use cooprt_telemetry::Tracer;
use std::time::{Duration, Instant};

/// Frame edge of the render matrix.
const RENDER_RES: usize = 64;
/// Scene detail of the render matrix.
const RENDER_DETAIL: u32 = 32;
/// Scene detail of the query matrix.
const QUERY_DETAIL: u32 = 16;
/// Query points per query cell.
const QUERY_COUNT: usize = 2048;
/// Primary rays per scene checked against brute force through `RtUnit`.
const PRIMARY_CHECK_RAYS: usize = 32;

/// Which matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// 15 render scenes × {baseline, cooprt}, path-traced.
    Render,
    /// 4 query scenes × {baseline, cooprt} × {reorder off, morton}.
    Query,
}

/// One cell of a matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
    scene: usize,
    policy: TraversalPolicy,
    reorder: ReorderPolicy,
}

impl Matrix {
    fn ids(self) -> Vec<SceneId> {
        match self {
            Matrix::Render => ALL_SCENES.to_vec(),
            Matrix::Query => QUERY_SCENES.to_vec(),
        }
    }

    /// The workload's name.
    fn name(self) -> &'static str {
        match self {
            Matrix::Render => "render",
            Matrix::Query => "query",
        }
    }

    fn detail(self) -> u32 {
        match self {
            Matrix::Render => RENDER_DETAIL,
            Matrix::Query => QUERY_DETAIL,
        }
    }

    fn reorders(self) -> &'static [ReorderPolicy] {
        match self {
            Matrix::Render => &[ReorderPolicy::Off],
            Matrix::Query => &[ReorderPolicy::Off, ReorderPolicy::Morton],
        }
    }

    /// Sample salt of every cell: the simulated work is the same in
    /// every run (salt 0 is the render golden pins', 1 the query pins').
    fn salt(self) -> u64 {
        match self {
            Matrix::Render => 0,
            Matrix::Query => 1,
        }
    }

    /// Cells scene-major in a seeded scene order, then reorder, then
    /// policy, so the baseline and CoopRT runs of a pairing are adjacent.
    fn cells(self, seed: u64) -> Vec<Cell> {
        let mut order: Vec<usize> = (0..self.ids().len()).collect();
        let mut rng = crate::SplitMix::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cells = Vec::new();
        for scene in order {
            for &reorder in self.reorders() {
                for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
                    cells.push(Cell {
                        scene,
                        policy,
                        reorder,
                    });
                }
            }
        }
        cells
    }
}

/// The query shader each query scene exists to exercise.
pub fn query_kind(id: SceneId) -> ShaderKind {
    match id {
        SceneId::Qclu => ShaderKind::Radius,
        SceneId::Qamr => ShaderKind::Contain,
        _ => ShaderKind::Knn,
    }
}

/// Builds every scene of the matrix, returning the scenes and the
/// seconds spent in `SceneId::build`.
fn build_scenes(matrix: Matrix) -> (Vec<Scene>, f64) {
    let start = Instant::now();
    let scenes = matrix
        .ids()
        .into_iter()
        .map(|id| id.build(matrix.detail()))
        .collect();
    (scenes, start.elapsed().as_secs_f64())
}

/// Builds the matrix's scenes and drops them; returns the seconds spent
/// in `SceneId::build`.
pub fn set_up_once(matrix: Matrix) -> f64 {
    build_scenes(matrix).1
}

/// Runs one cell; `tracer` is installed when given.
fn run_cell(matrix: Matrix, scenes: &[Scene], cell: Cell, tracer: Option<&Tracer>) -> FrameResult {
    let salt = matrix.salt();
    let cfg = GpuConfig::rtx2060().with_reorder(cell.reorder);
    let scene = &scenes[cell.scene];
    match (matrix, tracer) {
        (Matrix::Render, _) => {
            let mut sim = Simulation::new(scene, &cfg, cell.policy).with_sample_salt(salt);
            if let Some(t) = tracer {
                sim = sim.with_tracer(t.clone());
            }
            sim.run_frame(ShaderKind::PathTrace, RENDER_RES, RENDER_RES)
                .expect("the render matrix uses a valid frame and config")
        }
        (Matrix::Query, None) => {
            let kind = query_kind(matrix.ids()[cell.scene]);
            cooprt_query::run_queries(scene, &cfg, cell.policy, kind, QUERY_COUNT, salt)
                .expect("query scenes carry the domain their shader needs")
                .frame
        }
        // `run_queries` takes no tracer; this is its body with one added.
        (Matrix::Query, Some(t)) => {
            let kind = query_kind(matrix.ids()[cell.scene]);
            Simulation::new(scene, &cfg, cell.policy)
                .with_sample_salt(salt)
                .with_tracer(t.clone())
                .run_frame(kind, QUERY_COUNT, 1)
                .expect("query scenes carry the domain their shader needs")
        }
    }
}

/// Checks one round of results: paired cells agree on every functional
/// output, query answers equal the brute-force oracle, and the round
/// repeats the first round's cycles exactly. Returns how many cells
/// failed a check.
fn check_round(
    matrix: Matrix,
    cells: &[Cell],
    results: &[FrameResult],
    oracle: &[Vec<Vec<u32>>],
    first_cycles: &[u64],
    checks: &mut Checks,
) -> u64 {
    let ids = matrix.ids();
    let mut failed = 0;
    for (i, (cell, r)) in cells.iter().zip(results).enumerate() {
        let before = checks.count();
        let name = ids[cell.scene].name();
        checks.expect(r.cycles == first_cycles[i], || {
            format!(
                "{name} {cell:?}: cycles {} vs {} in the first round",
                r.cycles, first_cycles[i]
            )
        });
        if cell.policy == TraversalPolicy::CoopRt {
            let base = &results[i - 1];
            checks.expect(base.image == r.image && base.rays == r.rays, || {
                format!(
                    "{name} {:?}: baseline and CoopRT images or ray counts differ",
                    cell.reorder
                )
            });
            checks.expect(base.query_results == r.query_results, || {
                format!(
                    "{name} {:?}: baseline and CoopRT answers differ",
                    cell.reorder
                )
            });
        }
        if matrix == Matrix::Query {
            checks.expect(r.query_results == oracle[cell.scene], || {
                format!("{name} {cell:?}: answers differ from the brute-force oracle")
            });
        }
        failed += u64::from(checks.count() > before);
    }
    failed
}

/// Traces a sample of primary rays through a lone `RtUnit` under both
/// policies and compares each closest hit with brute force.
fn check_primary_rays(scene: &Scene, seed: u64, checks: &mut Checks) {
    let cfg = GpuConfig::rtx2060();
    let mut rng = crate::SplitMix::new(seed ^ 0x5eed_0f9a);
    let mut rays = [None; 32];
    for slot in rays.iter_mut().take(PRIMARY_CHECK_RAYS) {
        let (x, y) = (rng.below(RENDER_RES as u64), rng.below(RENDER_RES as u64));
        let s = (x as f32 + 0.5) / RENDER_RES as f32;
        let t = (y as f32 + 0.5) / RENDER_RES as f32;
        *slot = Some(scene.camera.primary_ray(s, t));
    }
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::CoopRt] {
        let hits = trace_lone_warp(scene, &cfg, policy, rays);
        for (lane, ray) in rays.iter().enumerate() {
            let Some(ray) = ray else { continue };
            let want = brute_force_closest_hit(&scene.image, ray, f32::INFINITY);
            let got = hits[lane];
            let agree = match (got, want) {
                (None, None) => true,
                (Some(a), Some(b)) => a.0 == b.triangle && (a.1 - b.t).abs() < 1e-4,
                _ => false,
            };
            checks.expect(agree, || {
                format!(
                    "{} {policy:?}: primary ray {lane} hits {got:?} in the RT unit, {want:?} by brute force",
                    scene.name
                )
            });
        }
    }
}

/// Runs one closest-hit warp through a fresh RT unit and memory
/// hierarchy until it retires; returns `(triangle, t)` per lane.
fn trace_lone_warp(
    scene: &Scene,
    cfg: &GpuConfig,
    policy: TraversalPolicy,
    rays: [Option<Ray>; 32],
) -> [Option<(u32, f32)>; 32] {
    let mut unit = RtUnit::for_config(0, cfg);
    let mut mem = MemoryHierarchy::new(&cfg.mem);
    assert!(unit.issue(TraceQuery::closest_hit(0, rays), 0, scene));
    let mut retired = Vec::new();
    let mut now = 0;
    while retired.is_empty() {
        unit.step(now, &mut mem, scene, policy, cfg, &mut retired);
        now += 1;
        assert!(now < 100_000_000, "a lone warp must retire");
    }
    let mut out = [None; 32];
    for (o, h) in out.iter_mut().zip(retired[0].hits.iter()) {
        *o = h.map(|h| (h.triangle, h.t));
    }
    out
}

/// Brute-force answers per scene of the query matrix; empty for render.
fn oracle(matrix: Matrix, scenes: &[Scene]) -> Vec<Vec<Vec<u32>>> {
    match matrix {
        Matrix::Render => Vec::new(),
        Matrix::Query => matrix
            .ids()
            .iter()
            .zip(scenes)
            .map(|(&id, s)| {
                cooprt_query::oracle_answers(s, query_kind(id), QUERY_COUNT, matrix.salt())
            })
            .collect(),
    }
}

/// Untraced pass: the set-up median from a child process, then whole
/// rounds of the matrix until `seconds` have passed, every round checked.
pub fn run_untraced(matrix: Matrix, seed: u64, seconds: u64) -> Outcome {
    let setup_s = crate::setup_s_in_child(matrix.name());
    let (scenes, _) = build_scenes(matrix);
    let cells = matrix.cells(seed);
    let oracle = oracle(matrix, &scenes);
    let mut checks = Checks::default();
    let mut failed = 0;
    let mut rounds = 0usize;
    let mut first: Option<Vec<FrameResult>> = None;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        let results: Vec<FrameResult> = cells
            .iter()
            .map(|&cell| run_cell(matrix, &scenes, cell, None))
            .collect();
        rounds += 1;
        let first_cycles: Vec<u64> = first
            .as_ref()
            .unwrap_or(&results)
            .iter()
            .map(|r| r.cycles)
            .collect();
        failed += check_round(
            matrix,
            &cells,
            &results,
            &oracle,
            &first_cycles,
            &mut checks,
        );
        first.get_or_insert(results);
    }
    if matrix == Matrix::Render {
        for scene in &scenes {
            check_primary_rays(scene, seed, &mut checks);
        }
    }
    let first = first.expect("at least one round ran");
    let cycles: u64 = first.iter().map(|r| r.cycles).sum();
    let speedups: Vec<f64> = cells
        .iter()
        .zip(&first)
        .enumerate()
        .filter(|(_, (c, _))| c.policy == TraversalPolicy::CoopRt)
        .map(|(i, (_, r))| first[i - 1].cycles as f64 / r.cycles as f64)
        .collect();
    Outcome {
        correct: checks.report(),
        attempted: (rounds * cells.len()) as u64,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("sim_cycles", cycles as f64, "cycles"),
            ("coop_speedup", geomean(&speedups), "x"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}

/// Traced pass: one round of the matrix, each cell run untraced (for
/// its engine time) and then traced (for its event stream and the
/// memory replay).
pub fn run_traced(matrix: Matrix, seed: u64) -> Outcome {
    let (scenes, build_s) = build_scenes(matrix);
    let ids = matrix.ids();
    let cells = matrix.cells(seed);
    let mut totals = LayerTotals::default();
    totals.build_s = build_s;
    let mut checks = Checks::default();
    let mut frames = Vec::with_capacity(cells.len());
    println!(
        "{:<6} {:<8} {:<7} {:>11} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "scene",
        "policy",
        "reorder",
        "cycles",
        "engine_s",
        "traced_s",
        "replay_s",
        "fetches",
        "mem%"
    );
    for &cell in &cells {
        let scene = &scenes[cell.scene];
        let cfg = GpuConfig::rtx2060().with_reorder(cell.reorder);
        let m = layers::measure(scene, &cfg, |t| run_cell(matrix, &scenes, cell, t));
        for p in &m.layers.problems {
            checks.expect(false, || format!("{} {cell:?}: {p}", scene.name));
        }
        println!(
            "{:<6} {:<8} {:<7} {:>11} {:>9.4} {:>9.4} {:>9.4} {:>9} {:>6.1}%",
            ids[cell.scene].name(),
            cell.policy.label(),
            cell.reorder.label(),
            m.frame.cycles,
            m.engine_s,
            m.traced_s,
            m.layers.replay_s,
            m.layers.counts.node_fetches,
            100.0 * m.layers.replay_s / m.engine_s,
        );
        totals.add(cell.policy, &m);
        frames.push(m.frame);
    }
    // The untraced frames get the same checks as in the untraced pass.
    let cycles: Vec<u64> = frames.iter().map(|f| f.cycles).collect();
    let oracle = oracle(matrix, &scenes);
    let failed = check_round(matrix, &cells, &frames, &oracle, &cycles, &mut checks);
    Outcome {
        correct: checks.report(),
        attempted: cells.len() as u64,
        failed,
        metrics: totals.metrics(),
    }
}
