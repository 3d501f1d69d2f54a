//! The `serve` workload: one closed-loop client on one keep-alive
//! connection against an in-process server with one worker.
//!
//! The client sends a fixed round of requests, generated from the seed,
//! as many times as the run allows. A round introduces every job of a
//! seeded pool once (a result-cache miss that runs the simulator) and
//! otherwise repeats one of the last few jobs introduced (a hit that
//! never reaches the simulator), with a JSON and a Prometheus `/metrics`
//! scrape at fixed positions. The pool is larger than the result cache,
//! so every job has been evicted again when the next round introduces
//! it, and every round sees the same hits and misses.
//!
//! The traced pass runs the same loop, then a shorter one against a
//! server with span trails on, which fetches each job's trail from
//! `GET /v1/spans/<id>` right after its response, joining it to the
//! client's view of the request by `X-Request-Id`.

use crate::layers::{self, LayerTotals};
use crate::stats::{geomean, median, percentile};
use crate::{peak_rss_mb, setup_s_in_child, Checks, Outcome, SplitMix};
use cooprt_core::{FrameResult, GpuConfig, Simulation, TraversalPolicy};
use cooprt_math::Rgb;
use cooprt_scenes::{Scene, SceneId};
use cooprt_serve::{
    ClientResponse, HttpClient, JobRequest, Limits, RequestReader, ServeConfig, Server,
    ShutdownHandle,
};
use cooprt_telemetry::{parse_json, validate_prometheus, JsonValue, Logger, SloConfig, Tracer};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Result-cache capacity of the server; smaller than the pool.
const RESULT_CAPACITY: usize = 16;
/// Job pairs in the pool; each pair is one job under both policies.
const PAIRS: usize = 12;
/// Requests per round, scrapes included.
const ROUND_LEN: usize = 200;
/// A JSON scrape at position 19 of every 40, a Prometheus one at 39.
const SCRAPE_PERIOD: usize = 40;
/// Repeats pick one of this many most recently introduced jobs.
const REPEAT_WINDOW: usize = 6;
/// A run sends at least this many requests.
const MIN_REQUESTS: usize = 1000;
/// Seed of the job pool, which is the same in every run: the run's own
/// seed orders the round, so the simulated work per round is fixed.
const POOL_SEED: u64 = 1;
/// Scene detail of every serve job (the scene cache is keyed on it).
const DETAIL: u32 = 4;
/// Render scenes and query scenes (with their shader) of the pool.
const RENDER_SCENES: [&str; 3] = ["wknd", "crnvl", "fox"];
const QUERY_SCENES: [(&str, &str); 2] = [("quni", "knn"), ("qamr", "cont")];

/// One distinct job of the pool.
struct Job {
    /// `render`, `simulate` or `query`.
    route: &'static str,
    body: String,
    req: JobRequest,
    /// Index of the job pair this job belongs to.
    pair: usize,
}

/// One request of a round.
#[derive(Clone, Copy)]
enum Op {
    Job(usize),
    ScrapeJson,
    ScrapeProm,
}

impl Op {
    fn route(self, pool: &[Job]) -> &'static str {
        match self {
            Op::Job(j) => pool[j].route,
            Op::ScrapeJson | Op::ScrapeProm => "metrics",
        }
    }

    /// The request as the client puts it on the wire.
    fn wire(self, pool: &[Job]) -> Vec<u8> {
        match self {
            Op::Job(j) => format!(
                "POST /v1/{} HTTP/1.1\r\nHost: cooprt\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n{}",
                pool[j].route,
                pool[j].body.len(),
                pool[j].body
            ),
            Op::ScrapeJson => {
                "GET /metrics HTTP/1.1\r\nHost: cooprt\r\nContent-Length: 0\r\nContent-Type: application/json\r\n\r\n".to_string()
            }
            Op::ScrapeProm => {
                "GET /metrics HTTP/1.1\r\nHost: cooprt\r\nAccept: text/plain\r\nContent-Length: 0\r\n\r\n".to_string()
            }
        }
        .into_bytes()
    }
}

/// The seeded job pool: `PAIRS` distinct job specs, each under both
/// policies.
fn make_pool(seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed);
    let mut pool: Vec<Job> = Vec::new();
    let mut specs: Vec<String> = Vec::new();
    while specs.len() < PAIRS {
        let pair = specs.len();
        let (route, spec) = match pair % 4 {
            0 | 1 => {
                let scene = RENDER_SCENES[rng.below(3) as usize];
                let shader = ["pt", "ao", "sh"][rng.below(3) as usize];
                let w = 8 + 4 * rng.below(3);
                let h = 8 + 4 * rng.below(3);
                let image = rng.below(2) == 0;
                (
                    "render",
                    format!(
                        "\"scene\":\"{scene}\",\"detail\":{DETAIL},\"width\":{w},\"height\":{h},\"shader\":\"{shader}\",\"include_image\":{image}"
                    ),
                )
            }
            2 => {
                let scene = RENDER_SCENES[rng.below(3) as usize];
                let w = 8 + 4 * rng.below(3);
                (
                    "simulate",
                    format!(
                        "\"scene\":\"{scene}\",\"detail\":{DETAIL},\"width\":{w},\"height\":{w}"
                    ),
                )
            }
            _ => {
                let (scene, shader) = QUERY_SCENES[rng.below(2) as usize];
                let count = 64 * (1 + rng.below(4));
                (
                    "query",
                    format!(
                        "\"scene\":\"{scene}\",\"detail\":{DETAIL},\"width\":{count},\"height\":1,\"shader\":\"{shader}\""
                    ),
                )
            }
        };
        if specs.contains(&spec) {
            continue;
        }
        specs.push(spec.clone());
        for policy in ["baseline", "cooprt"] {
            let body = format!("{{{spec},\"policy\":\"{policy}\",\"config\":\"small\",\"sms\":2}}");
            let req = JobRequest::from_json(&parse_json(&body).expect("pool bodies are JSON"))
                .expect("pool bodies are valid jobs");
            // One sample per job: the in-process checks compare a body's
            // image with a single `run_frame`.
            assert_eq!(req.spp, 1, "pool jobs render one sample");
            pool.push(Job {
                route,
                body,
                req,
                pair,
            });
        }
    }
    pool
}

/// The seeded round: every pool job introduced once, in a seeded order
/// spread evenly over the round, repeats of recent jobs in between, and
/// the scrapes at fixed positions.
fn make_round(seed: u64, pool: &[Job]) -> Vec<Op> {
    let mut rng = SplitMix::new(seed ^ 0x72_6f75_6e64);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let job_slots = ROUND_LEN - 2 * (ROUND_LEN / SCRAPE_PERIOD);
    let mut introduced: Vec<usize> = Vec::new();
    let mut ops = Vec::with_capacity(ROUND_LEN);
    let mut slot = 0;
    for pos in 0..ROUND_LEN {
        if pos % SCRAPE_PERIOD == SCRAPE_PERIOD / 2 - 1 {
            ops.push(Op::ScrapeJson);
            continue;
        }
        if pos % SCRAPE_PERIOD == SCRAPE_PERIOD - 1 {
            ops.push(Op::ScrapeProm);
            continue;
        }
        let due =
            introduced.len() < order.len() && slot >= introduced.len() * job_slots / order.len();
        if due {
            introduced.push(order[introduced.len()]);
            ops.push(Op::Job(*introduced.last().expect("just pushed")));
        } else {
            let window = introduced.len().min(REPEAT_WINDOW);
            let pick = introduced.len() - 1 - rng.below(window as u64) as usize;
            ops.push(Op::Job(introduced[pick]));
        }
        slot += 1;
    }
    ops
}

/// A running in-process server.
struct Running {
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    addr: String,
}

impl Running {
    fn start(spans: bool) -> Running {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 4,
            scene_cache_capacity: 8,
            result_cache_capacity: RESULT_CAPACITY,
            limits: Limits::default(),
            default_deadline: Duration::from_secs(120),
            retry_after_secs: 1,
            handle_signals: false,
            request_spans: spans,
            slo: SloConfig::default(),
            logger: Logger::disabled(),
        };
        let server = Server::bind(&cfg).expect("bind an ephemeral local port");
        let addr = server.local_addr().expect("bound address").to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Running {
            handle,
            thread,
            addr,
        }
    }

    /// Drains the server and waits for every one of its threads.
    fn stop(self) -> ShutdownHandle {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server ran");
        self.handle
    }
}

/// The client's side of the run, with the FIFO model of the result
/// cache that says which jobs are resident.
struct Client {
    http: HttpClient,
    resident: VecDeque<String>,
    tally: Tally,
}

/// What the client sent, and the hits and misses its model expected.
#[derive(Default)]
struct Tally {
    sent: u64,
    result_hits: u64,
    result_misses: u64,
}

impl Client {
    fn connect(addr: &str) -> Client {
        Client {
            http: HttpClient::connect(addr).expect("connect to the in-process server"),
            resident: VecDeque::new(),
            tally: Tally::default(),
        }
    }

    /// Closes the connection, so the server's connection thread ends.
    fn close(self) -> Tally {
        self.tally
    }

    fn get(&mut self, target: &str, accept: Option<&str>) -> ClientResponse {
        self.tally.sent += 1;
        match accept {
            Some(a) => self.http.get_accept(target, a),
            None => self.http.get(target),
        }
        .expect("the server answers every request")
    }

    /// Posts a job; returns the response and whether the model expected
    /// a hit. Misses enter the model as the server's cache inserts them.
    fn post(&mut self, route: &str, body: &str) -> (ClientResponse, bool) {
        self.tally.sent += 1;
        let key = format!("{route} {body}");
        let expect_hit = self.resident.contains(&key);
        let resp = self
            .http
            .post(&format!("/v1/{route}"), body)
            .expect("the server answers every request");
        if expect_hit {
            self.tally.result_hits += 1;
        } else {
            self.tally.result_misses += 1;
            if self.resident.len() == RESULT_CAPACITY {
                self.resident.pop_front();
            }
            self.resident.push_back(key);
        }
        (resp, expect_hit)
    }
}

/// Starts a server, waits for `/healthz`, and puts every scene of the
/// pool in its scene cache with a one-pixel job per scene.
fn set_up(spans: bool) -> ((Running, Client), f64) {
    let start = Instant::now();
    let server = Running::start(spans);
    let mut client = Client::connect(&server.addr);
    while client.get("/healthz", None).status != 200 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let scenes = RENDER_SCENES
        .iter()
        .chain(QUERY_SCENES.iter().map(|(s, _)| s));
    for scene in scenes {
        let body = format!(
            "{{\"scene\":\"{scene}\",\"detail\":{DETAIL},\"width\":1,\"height\":1,\"config\":\"small\",\"sms\":1}}"
        );
        let (resp, _) = client.post("render", &body);
        assert_eq!(resp.status, 200, "warm-up job for {scene}");
    }
    ((server, client), start.elapsed().as_secs_f64())
}

/// One set-up, torn down again: closes the client's connection, drains
/// the server and waits for its threads. Returns the set-up seconds.
pub fn set_up_once() -> f64 {
    let ((server, client), secs) = set_up(false);
    drop(client);
    server.stop();
    secs
}

/// Request latencies and span stages gathered over a run.
#[derive(Default)]
struct Observed {
    checks: Checks,
    failed: u64,
    latencies_ms: Vec<f64>,
    /// Route of each request, parallel to `latencies_ms`.
    routes: Vec<&'static str>,
    /// `(stage, hit)` → span durations in µs, from the server's trails.
    stages: HashMap<(String, bool), Vec<f64>>,
    /// Body of each job's miss, for the hit-identity check.
    miss_body: HashMap<usize, Vec<u8>>,
    /// Simulated cycles of each job, from its body.
    cycles: HashMap<usize, u64>,
}

fn body_u64(doc: &JsonValue, key: &str) -> Option<u64> {
    doc.get(key).and_then(|v| v.as_f64()).map(|v| v as u64)
}

/// Sends rounds until `seconds` have passed and at least
/// [`MIN_REQUESTS`] requests went out; checks every response.
fn closed_loop(
    client: &mut Client,
    pool: &[Job],
    round: &[Op],
    seconds: u64,
    spans: bool,
) -> Observed {
    // Room for every request up front, so the client's own growth does
    // not move the peak resident set from run to run.
    let room = MIN_REQUESTS + 10_000 * seconds as usize;
    let mut obs = Observed {
        latencies_ms: Vec::with_capacity(room),
        routes: Vec::with_capacity(room),
        ..Observed::default()
    };
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut sent = 0;
    while sent < MIN_REQUESTS || start.elapsed() < budget {
        for &op in round {
            let t = Instant::now();
            let (resp, expect_hit) = match op {
                Op::Job(j) => client.post(pool[j].route, &pool[j].body),
                Op::ScrapeJson => (client.get("/metrics", None), false),
                Op::ScrapeProm => (client.get("/metrics", Some("text/plain")), false),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            sent += 1;
            obs.latencies_ms.push(ms);
            obs.routes.push(op.route(pool));
            if resp.status != 200 {
                obs.failed += 1;
                continue;
            }
            // A request whose response fails a check also counts as failed.
            let before = obs.checks.count();
            match op {
                Op::ScrapeJson => {
                    obs.checks.expect(parse_json(&resp.text()).is_ok(), || {
                        "JSON /metrics does not parse".to_string()
                    });
                }
                Op::ScrapeProm => {
                    let text = resp.text();
                    obs.checks.expect(validate_prometheus(&text).is_ok(), || {
                        format!(
                            "Prometheus /metrics fails validation: {:?}",
                            validate_prometheus(&text).err()
                        )
                    });
                }
                Op::Job(j) => {
                    let hit = resp.header("x-cache") == Some("hit");
                    obs.checks.expect(hit == expect_hit, || {
                        format!("job {j}: X-Cache {hit} where the FIFO model says {expect_hit}")
                    });
                    match obs.miss_body.get(&j) {
                        Some(b) => {
                            let same = *b == resp.body;
                            obs.checks.expect(same, || {
                                format!("job {j}: body differs from its first miss")
                            });
                        }
                        None if !hit => {
                            obs.miss_body.insert(j, resp.body.clone());
                        }
                        None => obs
                            .checks
                            .expect(false, || format!("job {j}: hit before any miss")),
                    }
                    if !hit {
                        let c = parse_json(&resp.text())
                            .ok()
                            .and_then(|d| body_u64(&d, "cycles"));
                        obs.checks
                            .expect(c.is_some(), || format!("job {j}: body has no cycle count"));
                        obs.cycles.insert(j, c.unwrap_or(0));
                    }
                    if spans {
                        let id = resp.header("x-request-id").unwrap_or("0").to_string();
                        let trail = client.get(&format!("/v1/spans/{id}"), None);
                        obs.checks.expect(trail.status == 200, || {
                            format!("no span trail for request {id}")
                        });
                        record_trail(&mut obs, &trail.text(), hit);
                    }
                }
            }
            obs.failed += u64::from(obs.checks.count() > before);
        }
    }
    obs
}

/// Adds the durations of one request's span trail (Chrome trace JSON).
fn record_trail(obs: &mut Observed, text: &str, hit: bool) {
    let Ok(doc) = parse_json(text) else {
        obs.checks
            .expect(false, || "span trail does not parse".to_string());
        return;
    };
    let Some(JsonValue::Array(events)) = doc.get("traceEvents") else {
        return;
    };
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let name = e.get("name").and_then(|n| n.as_str()).unwrap_or("?");
        let dur = e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
        obs.stages
            .entry((name.to_string(), hit))
            .or_default()
            .push(dur);
    }
}

/// The scenes of the pool's jobs, built once; also returns the seconds
/// spent in `SceneId::build`.
fn build_pool_scenes(pool: &[Job]) -> (HashMap<(SceneId, u32), Scene>, f64) {
    let mut scenes = HashMap::new();
    let mut build_s = 0.0;
    for job in pool {
        let key = (job.req.scene, job.req.detail);
        scenes.entry(key).or_insert_with(|| {
            let t = Instant::now();
            let scene = key.0.build(key.1);
            build_s += t.elapsed().as_secs_f64();
            scene
        });
    }
    (scenes, build_s)
}

/// Simulates a pool job in-process, as the server's worker does, with
/// `tracer` installed when given.
fn simulate(scene: &Scene, req: &JobRequest, tracer: Option<&Tracer>) -> FrameResult {
    let cfg = job_config(req);
    let mut sim = Simulation::new(scene, &cfg, req.policy);
    if let Some(t) = tracer {
        sim = sim.with_tracer(t.clone());
    }
    sim.run_frame(req.shader, req.width, req.height)
        .expect("pool jobs are valid")
}

fn job_config(req: &JobRequest) -> GpuConfig {
    req.config
        .build()
        .with_reorder(req.reorder)
        .with_predict(req.predict)
}

/// Whether a job's body is checked against the engine: render jobs that
/// carry their image, and query jobs.
fn checked_in_process(job: &Job) -> bool {
    (job.route == "render" && job.req.include_image) || job.route == "query"
}

/// Checks made once per run, outside the timed loop: render jobs with
/// `include_image` against `frames`, the same jobs simulated in-process,
/// and query answers against the brute-force oracle.
fn check_against_engine(
    pool: &[Job],
    scenes: &HashMap<(SceneId, u32), Scene>,
    frames: &HashMap<usize, FrameResult>,
    obs: &mut Observed,
) {
    for (j, job) in pool.iter().enumerate() {
        let req = &job.req;
        let Some(body) = obs.miss_body.get(&j) else {
            continue;
        };
        if !checked_in_process(job) {
            continue;
        }
        let doc = parse_json(&String::from_utf8_lossy(body)).expect("job bodies are JSON");
        if job.route == "query" {
            let scene = &scenes[&(req.scene, req.detail)];
            let want = cooprt_query::oracle_answers(scene, req.shader, req.width * req.height, 0);
            let got: Vec<Vec<u32>> = match doc.get("answers") {
                Some(JsonValue::Array(a)) => a
                    .iter()
                    .map(|q| match q {
                        JsonValue::Array(ids) => ids
                            .iter()
                            .filter_map(|v| v.as_f64())
                            .map(|v| v as u32)
                            .collect(),
                        _ => Vec::new(),
                    })
                    .collect(),
                _ => Vec::new(),
            };
            obs.checks.expect(got == want, || {
                format!("job {j}: query answers differ from the oracle")
            });
            continue;
        }
        let Some(frame) = frames.get(&j) else {
            obs.checks
                .expect(false, || format!("job {j}: not simulated in-process"));
            continue;
        };
        // The server accumulates its one sample onto black, as
        // `Simulation::run_accumulated` does.
        let want: Vec<u64> = frame
            .image
            .iter()
            .map(|&px| {
                let mut acc = Rgb::BLACK;
                acc += px * 1.0;
                acc
            })
            .flat_map(|p| [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()])
            .map(u64::from)
            .collect();
        let got: Vec<u64> = match doc.get("pixels_bits") {
            Some(JsonValue::Array(a)) => a
                .iter()
                .filter_map(|v| v.as_f64())
                .map(|v| v as u64)
                .collect(),
            _ => Vec::new(),
        };
        obs.checks.expect(
            got == want && body_u64(&doc, "cycles") == Some(frame.cycles),
            || format!("job {j}: image or cycles differ from the job simulated in-process"),
        );
    }
}

/// Checks the drained server's counters against what the client sent.
fn check_counters(handle: &ShutdownHandle, client: &Tally, obs: &mut Observed) -> JsonValue {
    let doc = parse_json(&handle.metrics_json()).expect("metrics JSON parses");
    let at = |a: &str, b: &str| doc.get(a).and_then(|s| body_u64(s, b)).unwrap_or(u64::MAX);
    let requests = at("http", "requests");
    obs.checks.expect(requests == client.sent, || {
        format!(
            "server counted {requests} requests, the client sent {}",
            client.sent
        )
    });
    let (hits, misses) = (at("result_cache", "hits"), at("result_cache", "misses"));
    obs.checks.expect(
        hits == client.result_hits && misses == client.result_misses,
        || {
            format!(
                "server counted {hits} hits / {misses} misses, the client model {} / {}",
                client.result_hits, client.result_misses
            )
        },
    );
    doc
}

/// Geomean of baseline/CoopRT cycles over the pool's job pairs.
fn coop_speedup(pool: &[Job], obs: &Observed) -> f64 {
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let of = |p: TraversalPolicy| {
                pool.iter()
                    .position(|j| j.pair == pair && j.req.policy == p)
                    .and_then(|j| obs.cycles.get(&j))
                    .copied()
                    .unwrap_or(1)
            };
            of(TraversalPolicy::Baseline) as f64 / of(TraversalPolicy::CoopRt).max(1) as f64
        })
        .collect();
    geomean(&ratios)
}

/// Untraced pass: the end-to-end metrics.
pub fn run_untraced(seed: u64, seconds: u64) -> Outcome {
    let setup_s = setup_s_in_child("serve");
    let pool = make_pool(POOL_SEED);
    let round = make_round(seed, &pool);
    // The in-process references come first, on this thread, so the
    // memory they take is the same in every run.
    let (scenes, _) = build_pool_scenes(&pool);
    let frames: HashMap<usize, FrameResult> = pool
        .iter()
        .enumerate()
        .filter(|(_, job)| job.route == "render" && checked_in_process(job))
        .map(|(j, job)| {
            let req = &job.req;
            (j, simulate(&scenes[&(req.scene, req.detail)], req, None))
        })
        .collect();
    let ((server, mut client), _) = set_up(false);
    let mut obs = closed_loop(&mut client, &pool, &round, seconds, false);
    let tally = client.close();
    let handle = server.stop();
    check_counters(&handle, &tally, &mut obs);
    check_against_engine(&pool, &scenes, &frames, &mut obs);
    Outcome {
        correct: obs.checks.report(),
        attempted: obs.latencies_ms.len() as u64,
        failed: obs.failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            // The simulator's work per round: every pool job once.
            (
                "sim_cycles",
                obs.cycles.values().sum::<u64>() as f64,
                "cycles",
            ),
            ("coop_speedup", coop_speedup(&pool, &obs), "x"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}

/// Median host time of `f` over `reps` calls, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&samples)
}

/// Traced pass: the per-layer metrics.
///
/// Latencies (`serve.*`, `route.*`), the `/metrics` renderings and the
/// server's counters come from a closed loop against a server without
/// span trails, as in the untraced pass. The stage medians come from a
/// second, shorter loop of [`MIN_REQUESTS`] requests against a server
/// with span trails on, which fetches each job's trail after its
/// response.
pub fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let pool = make_pool(POOL_SEED);
    let round = make_round(seed, &pool);

    let ((server, mut client), _) = set_up(false);
    let mut obs = closed_loop(&mut client, &pool, &round, seconds, false);
    let json_us = time_ns(50, || {
        std::hint::black_box(server.handle.metrics_json());
    }) / 1e3;
    let prom_us = time_ns(50, || {
        std::hint::black_box(server.handle.metrics_prometheus());
    }) / 1e3;
    let tally = client.close();
    let doc = check_counters(&server.stop(), &tally, &mut obs);

    let ((server, mut client), _) = set_up(true);
    let mut trails = closed_loop(&mut client, &pool, &round, 0, true);
    let tally = client.close();
    check_counters(&server.stop(), &tally, &mut trails);
    obs.failed += trails.failed;

    // The front end, timed directly on the round's request bytes.
    let wires: Vec<Vec<u8>> = round.iter().map(|op| op.wire(&pool)).collect();
    let http_ns = time_ns(20, || {
        for w in &wires {
            let mut reader = RequestReader::new(&w[..], Limits::default());
            std::hint::black_box(reader.read_request().expect("well-formed request"));
        }
    }) / wires.len() as f64;
    let bodies: Vec<&str> = round
        .iter()
        .filter_map(|op| match op {
            Op::Job(j) => Some(pool[*j].body.as_str()),
            _ => None,
        })
        .collect();
    let api_ns = time_ns(20, || {
        for b in &bodies {
            let doc = parse_json(b).expect("pool bodies are JSON");
            std::hint::black_box(JobRequest::from_json(&doc).expect("pool bodies are valid jobs"));
        }
    }) / bodies.len() as f64;

    // The simulator layers under the round's misses: every pool job once,
    // simulated here as the worker does. Its untraced frames also serve
    // the in-process checks of both loops' bodies.
    let mut totals = LayerTotals::default();
    let (scenes, build_s) = build_pool_scenes(&pool);
    totals.build_s = build_s;
    let mut frames = HashMap::new();
    for (j, job) in pool.iter().enumerate() {
        let req = &job.req;
        let scene = &scenes[&(req.scene, req.detail)];
        let m = layers::measure(scene, &job_config(req), |tracer| {
            simulate(scene, req, tracer)
        });
        for p in &m.layers.problems {
            obs.checks.expect(false, || format!("{}: {p}", job.body));
        }
        totals.add(req.policy, &m);
        frames.insert(j, m.frame);
    }
    check_against_engine(&pool, &scenes, &frames, &mut obs);
    check_against_engine(&pool, &scenes, &frames, &mut trails);

    let stage = |name: &str, hit: bool| {
        trails
            .stages
            .get(&(name.to_string(), hit))
            .map_or(0.0, |v| median(v))
    };
    let route = |r: &str| {
        let v: Vec<f64> = obs
            .latencies_ms
            .iter()
            .zip(&obs.routes)
            .filter(|(_, route)| **route == r)
            .map(|(ms, _)| *ms)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let counter = |a: &str, b: &str| doc.get(a).and_then(|s| body_u64(s, b)).unwrap_or(0) as f64;
    let loop_s: f64 = obs.latencies_ms.iter().sum::<f64>() / 1e3;
    let mut metrics = totals.metrics();
    metrics.extend([
        (
            "serve.req_per_s",
            obs.latencies_ms.len() as f64 / loop_s,
            "1/s",
        ),
        ("serve.p50_ms", median(&obs.latencies_ms), "ms"),
        ("serve.p99_ms", percentile(&obs.latencies_ms, 99.0), "ms"),
        ("route.render_p50_ms", route("render"), "ms"),
        ("route.simulate_p50_ms", route("simulate"), "ms"),
        ("route.query_p50_ms", route("query"), "ms"),
        ("route.metrics_p50_ms", route("metrics"), "ms"),
        ("server.parse_us.hit", stage("parse", true), "us"),
        ("server.parse_us.miss", stage("parse", false), "us"),
        ("queue.wait_us.hit", stage("queue_wait", true), "us"),
        ("queue.wait_us.miss", stage("queue_wait", false), "us"),
        ("cache.lookup_us.hit", stage("result_cache", true), "us"),
        ("cache.lookup_us.miss", stage("result_cache", false), "us"),
        ("exec.scene_us", stage("scene", false), "us"),
        ("exec.engine_us", stage("engine_run", false), "us"),
        ("exec.serialize_us", stage("serialize", false), "us"),
        ("http.parse_ns", http_ns, "ns"),
        ("api.validate_ns", api_ns, "ns"),
        ("metrics.json_us", json_us, "us"),
        ("metrics.prom_us", prom_us, "us"),
        (
            "cache.result_hits",
            counter("result_cache", "hits"),
            "count",
        ),
        (
            "cache.result_misses",
            counter("result_cache", "misses"),
            "count",
        ),
        (
            "cache.scene_builds",
            counter("scene_cache", "misses"),
            "count",
        ),
    ]);
    let correct = obs.checks.report() & trails.checks.report();
    Outcome {
        correct,
        attempted: (obs.latencies_ms.len() + trails.latencies_ms.len()) as u64,
        failed: obs.failed,
        metrics,
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// Every round introduces each pool job once as a miss and repeats
    /// only resident jobs, so all rounds see the same hits and misses.
    #[test]
    fn every_round_has_the_same_hits_and_misses() {
        for seed in 0..20 {
            let pool = make_pool(seed);
            let bodies: std::collections::HashSet<&str> =
                pool.iter().map(|j| j.body.as_str()).collect();
            assert_eq!(
                bodies.len(),
                2 * PAIRS,
                "seed {seed}: pool jobs are distinct"
            );
            let round = make_round(seed, &pool);
            assert_eq!(round.len(), ROUND_LEN);
            let mut resident: VecDeque<usize> = VecDeque::new();
            let mut patterns = Vec::new();
            for _ in 0..3 {
                let mut pattern = Vec::new();
                for op in &round {
                    let Op::Job(j) = *op else { continue };
                    let hit = resident.contains(&j);
                    if !hit {
                        if resident.len() == RESULT_CAPACITY {
                            resident.pop_front();
                        }
                        resident.push_back(j);
                    }
                    pattern.push(hit);
                }
                assert_eq!(pattern.iter().filter(|h| !**h).count(), pool.len());
                patterns.push(pattern);
            }
            assert!(patterns.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
        }
    }
}
