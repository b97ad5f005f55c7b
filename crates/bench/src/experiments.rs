//! Implementations of the paper's experiments (see the crate docs for
//! the mapping to tables and figures).

use serde::{Deserialize, Serialize};

use noc_ctg::prelude::*;
use noc_eas::prelude::*;
use noc_par::{effective_threads, par_map};
use noc_platform::Platform;

use crate::platforms;
use crate::runner::{run_schedulers, savings_percent, ResultRow};

/// An internal experiment failure: a scheduler or simulator error on
/// inputs that are supposed to be feasible by construction. Studies
/// that can hit one return `Result` so batch binaries can exit
/// non-zero instead of silently skipping the data point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError(pub String);

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ExperimentError {}

/// The two random-benchmark families of Sec. 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Category {
    /// Looser deadlines (Fig. 5).
    I,
    /// Tighter deadlines (Fig. 6).
    II,
}

impl Category {
    /// TGFF preset for one seeded benchmark of the family.
    #[must_use]
    pub fn config(self, seed: u64) -> TgffConfig {
        match self {
            Category::I => TgffConfig::category_i(seed),
            Category::II => TgffConfig::category_ii(seed),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::I => "category-I",
            Category::II => "category-II",
        }
    }
}

/// Outcome of a Fig. 5 / Fig. 6 style run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryResult {
    /// Which family ran.
    pub category: String,
    /// Three rows (eas-base, eas, edf) per benchmark, benchmark-major.
    pub rows: Vec<ResultRow>,
    /// Benchmarks (by index) where EAS-base missed a deadline — the
    /// paper reports these explicitly (benchmark 0 in category I;
    /// benchmarks 0, 5, 6 in category II).
    pub base_miss_benchmarks: Vec<usize>,
    /// Mean extra energy of EDF over EAS in percent (the paper: 55% for
    /// category I, 39% for category II).
    pub avg_edf_overhead_percent: f64,
}

/// Runs `count` seeded random benchmarks of `category` on the 4x4 mesh
/// with EAS-base, EAS and EDF (Figs. 5 and 6), fanning the independent
/// benchmarks out over all hardware threads. Byte-identical to a serial
/// run (modulo wall-clock `runtime_s`).
///
/// # Panics
///
/// Panics only on internal scheduler errors (the generated graphs always
/// match the platform).
#[must_use]
pub fn random_category(category: Category, count: u64) -> CategoryResult {
    random_category_threads(category, count, 0)
}

/// [`random_category`] with an explicit worker count (0 = all hardware
/// threads, 1 = serial). Every thread count produces identical rows —
/// the fan-out is ordered and each seeded benchmark is independent.
///
/// # Panics
///
/// Panics only on internal scheduler errors (the generated graphs always
/// match the platform).
#[must_use]
pub fn random_category_threads(category: Category, count: u64, threads: usize) -> CategoryResult {
    let platform = platforms::mesh_4x4();
    let configs: Vec<TgffConfig> = (0..count).map(|seed| category.config(seed)).collect();
    let per_bench = category_rows(&platform, &configs, threads);

    let mut rows = Vec::new();
    let mut base_miss_benchmarks = Vec::new();
    let mut overhead_sum = 0.0;
    for (seed, bench_rows) in per_bench.into_iter().enumerate() {
        let base = &bench_rows[0];
        let full = &bench_rows[1];
        let baseline = &bench_rows[2];
        if base.deadline_misses > 0 {
            base_miss_benchmarks.push(seed);
        }
        overhead_sum += 100.0 * (baseline.energy_nj - full.energy_nj) / full.energy_nj;
        rows.extend(bench_rows);
    }
    CategoryResult {
        category: category.name().to_owned(),
        rows,
        base_miss_benchmarks,
        avg_edf_overhead_percent: overhead_sum / count as f64,
    }
}

/// Generates one benchmark per config and runs the Fig. 5/6 scheduler
/// line-up (EAS-base, EAS, EDF) on each, `par_map`-fanned over
/// `threads` workers. Results are ordered by config index, so the
/// output does not depend on the worker count.
fn category_rows(
    platform: &Platform,
    configs: &[TgffConfig],
    threads: usize,
) -> Vec<Vec<ResultRow>> {
    let eas_base = EasScheduler::base();
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    par_map(effective_threads(threads), configs, |_, cfg| {
        let graph = TgffGenerator::new(cfg.clone())
            .generate(platform)
            .expect("generator produces valid CTGs");
        run_schedulers(&graph, platform, &[&eas_base, &eas, &edf])
            .expect("generated graphs match the platform")
    })
}

/// One clip column of Tables 1–3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClipResult {
    /// Clip name (akiyo / foreman / toybox).
    pub clip: String,
    /// EAS energy, nJ.
    pub eas_energy_nj: f64,
    /// EDF energy, nJ.
    pub edf_energy_nj: f64,
    /// Paper-convention savings `(EDF - EAS) / EDF`, percent.
    pub savings_percent: f64,
    /// EAS computation energy, nJ (Sec. 6.2 quotes the split).
    pub eas_computation_nj: f64,
    /// EAS communication energy, nJ.
    pub eas_communication_nj: f64,
    /// EDF computation energy, nJ.
    pub edf_computation_nj: f64,
    /// EDF communication energy, nJ.
    pub edf_communication_nj: f64,
    /// Average routers per packet under EAS (2.55 -> 1.68 in the paper).
    pub eas_avg_hops: f64,
    /// Average routers per packet under EDF.
    pub edf_avg_hops: f64,
    /// EAS deadline misses (must be zero).
    pub eas_misses: usize,
}

/// Outcome of a Table 1/2/3 style run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultimediaTable {
    /// Which application ran.
    pub app: String,
    /// Mesh used, e.g. `"mesh-2x2"`.
    pub platform: String,
    /// One entry per clip, paper order.
    pub clips: Vec<ClipResult>,
}

impl MultimediaTable {
    /// Renders the paper's table layout: one column per clip with EAS
    /// energy, EDF energy and savings %, plus the energy split and hop
    /// statistics the paper quotes in prose.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "MSB Task Set        {:>14} {:>14} {:>14}\n",
            self.clips[0].clip, self.clips[1].clip, self.clips[2].clip
        ));
        let row = |label: &str, f: &dyn Fn(&ClipResult) -> String| -> String {
            format!(
                "{label:<19} {:>14} {:>14} {:>14}\n",
                f(&self.clips[0]),
                f(&self.clips[1]),
                f(&self.clips[2])
            )
        };
        out.push_str(&row("EAS Energy (nJ)", &|c| {
            format!("{:.1}", c.eas_energy_nj)
        }));
        out.push_str(&row("EDF Energy (nJ)", &|c| {
            format!("{:.1}", c.edf_energy_nj)
        }));
        out.push_str(&row("Energy Savings (%)", &|c| {
            format!("{:.1}", c.savings_percent)
        }));
        out.push('\n');
        out.push_str(&row("EAS comp (nJ)", &|c| {
            format!("{:.1}", c.eas_computation_nj)
        }));
        out.push_str(&row("EDF comp (nJ)", &|c| {
            format!("{:.1}", c.edf_computation_nj)
        }));
        out.push_str(&row("EAS comm (nJ)", &|c| {
            format!("{:.1}", c.eas_communication_nj)
        }));
        out.push_str(&row("EDF comm (nJ)", &|c| {
            format!("{:.1}", c.edf_communication_nj)
        }));
        out.push_str(&row("EAS hops/packet", &|c| {
            format!("{:.2}", c.eas_avg_hops)
        }));
        out.push_str(&row("EDF hops/packet", &|c| {
            format!("{:.2}", c.edf_avg_hops)
        }));
        out.push_str(&row("EAS deadline misses", &|c| c.eas_misses.to_string()));
        out
    }
}

/// Runs one multimedia application on its paper platform across all
/// three clips, comparing EAS and EDF (Tables 1–3).
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn multimedia_table(app: MultimediaApp) -> MultimediaTable {
    let (cols, rows_) = app.recommended_mesh();
    let platform = platforms::mesh(cols, rows_);
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();

    let mut clips = Vec::new();
    for clip in Clip::all() {
        let graph = app
            .build(clip, &platform)
            .expect("benchmark graphs are valid");
        let rows = run_schedulers(&graph, &platform, &[&eas, &edf])
            .expect("benchmark graphs match their platforms");
        let (e, d) = (&rows[0], &rows[1]);
        clips.push(ClipResult {
            clip: clip.name().to_owned(),
            eas_energy_nj: e.energy_nj,
            edf_energy_nj: d.energy_nj,
            savings_percent: savings_percent(e.energy_nj, d.energy_nj),
            eas_computation_nj: e.computation_nj,
            eas_communication_nj: e.communication_nj,
            edf_computation_nj: d.computation_nj,
            edf_communication_nj: d.communication_nj,
            eas_avg_hops: e.avg_hops,
            edf_avg_hops: d.avg_hops,
            eas_misses: e.deadline_misses,
        });
    }
    MultimediaTable {
        app: app.name().to_owned(),
        platform: platform.topology().to_string(),
        clips,
    }
}

/// Outcome of the Fig. 7 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffResult {
    /// Unified performance ratios (x axis).
    pub ratios: Vec<f64>,
    /// EAS energy per ratio, nJ (`NaN`-free; infeasible points report
    /// the schedule energy with its misses counted separately).
    pub eas_energy_nj: Vec<f64>,
    /// EDF energy per ratio, nJ.
    pub edf_energy_nj: Vec<f64>,
    /// EAS deadline misses per ratio (nonzero once the constraint
    /// becomes unschedulable).
    pub eas_misses: Vec<usize>,
    /// EDF deadline misses per ratio.
    pub edf_misses: Vec<usize>,
}

/// Sweeps the unified performance ratio on the integrated A/V system
/// (Fig. 7): deadlines scale as `1/ratio`, starting from 40 enc-fps /
/// 67 dec-fps at ratio 1.0.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn tradeoff_sweep(clip: Clip, ratios: &[f64]) -> TradeoffResult {
    tradeoff_sweep_threads(clip, ratios, 0)
}

/// [`tradeoff_sweep`] with an explicit worker count (0 = all hardware
/// threads, 1 = serial). The ratio points are independent and the
/// fan-out is ordered, so every thread count produces identical curves.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn tradeoff_sweep_threads(clip: Clip, ratios: &[f64], threads: usize) -> TradeoffResult {
    let platform = platforms::mesh_3x3();
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    let per_ratio = par_map(effective_threads(threads), ratios, |_, &ratio| {
        let graph = MultimediaApp::AvIntegrated
            .build_with_performance_ratio(clip, &platform, ratio)
            .expect("benchmark graphs are valid");
        run_schedulers(&graph, &platform, &[&eas, &edf])
            .expect("benchmark graphs match their platforms")
    });
    let mut result = TradeoffResult {
        ratios: ratios.to_vec(),
        eas_energy_nj: Vec::new(),
        edf_energy_nj: Vec::new(),
        eas_misses: Vec::new(),
        edf_misses: Vec::new(),
    };
    for rows in per_ratio {
        result.eas_energy_nj.push(rows[0].energy_nj);
        result.edf_energy_nj.push(rows[1].energy_nj);
        result.eas_misses.push(rows[0].deadline_misses);
        result.edf_misses.push(rows[1].deadline_misses);
    }
    result
}

/// One ablation configuration's aggregate over several seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Mean energy over the seeds, nJ.
    pub mean_energy_nj: f64,
    /// Benchmarks with at least one deadline miss.
    pub miss_benchmarks: usize,
    /// Total misses across all seeds.
    pub total_misses: usize,
    /// Mean scheduling runtime, seconds.
    pub mean_runtime_s: f64,
}

/// Ablation study over the design choices `DESIGN.md` calls out: the
/// weight function, slack budgeting itself, contention-aware
/// communication, and search-and-repair — each compared on the same
/// seeded category-II benchmarks (tight deadlines make the differences
/// visible) plus the EDF reference.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn ablation_study(seeds: u64) -> Vec<AblationRow> {
    ablation_study_threads(seeds, 0)
}

/// [`ablation_study`] with an explicit worker count (0 = all hardware
/// threads, 1 = serial). Every (variant, benchmark) cell is independent,
/// so the full cross product fans out; the rows aggregate in variant
/// order regardless of the worker count.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn ablation_study_threads(seeds: u64, threads: usize) -> Vec<AblationRow> {
    let platform = platforms::mesh_4x4();
    let variants: Vec<(String, Box<dyn Scheduler + Send + Sync>)> = vec![
        ("eas (paper)".into(), Box::new(EasScheduler::full())),
        (
            "eas-base (no repair)".into(),
            Box::new(EasScheduler::base()),
        ),
        (
            "weight=var-e".into(),
            Box::new(EasScheduler::new(EasConfig {
                weight_function: WeightFunction::VarEnergy,
                ..EasConfig::default()
            })),
        ),
        (
            "weight=var-r".into(),
            Box::new(EasScheduler::new(EasConfig {
                weight_function: WeightFunction::VarTime,
                ..EasConfig::default()
            })),
        ),
        (
            "weight=mean-time".into(),
            Box::new(EasScheduler::new(EasConfig {
                weight_function: WeightFunction::MeanTime,
                ..EasConfig::default()
            })),
        ),
        (
            "weight=uniform".into(),
            Box::new(EasScheduler::new(EasConfig {
                weight_function: WeightFunction::Uniform,
                ..EasConfig::default()
            })),
        ),
        (
            "no budgeting".into(),
            Box::new(EasScheduler::new(EasConfig {
                budgeting: false,
                ..EasConfig::default()
            })),
        ),
        (
            "fixed-delay comm".into(),
            Box::new(EasScheduler::new(EasConfig {
                comm_model: CommModel::FixedDelay,
                ..EasConfig::default()
            })),
        ),
        ("edf".into(), Box::new(EdfScheduler::new())),
        ("dls (Sih&Lee)".into(), Box::new(DlsScheduler::new())),
    ];

    let workers = effective_threads(threads);
    let seed_list: Vec<u64> = (0..seeds).collect();
    let graphs: Vec<TaskGraph> = par_map(workers, &seed_list, |_, &s| {
        TgffGenerator::new(TgffConfig::category_ii(s))
            .generate(&platform)
            .expect("generator produces valid CTGs")
    });

    // Fan the full (variant x benchmark) cross product out at once:
    // individual cells dominate the runtime and are independent.
    let cells: Vec<(usize, usize)> = (0..variants.len())
        .flat_map(|v| (0..graphs.len()).map(move |g| (v, g)))
        .collect();
    let per_cell: Vec<ResultRow> = par_map(workers, &cells, |_, &(v, g)| {
        let scheduler: &dyn Scheduler = variants[v].1.as_ref();
        run_schedulers(&graphs[g], &platform, &[scheduler])
            .expect("generated graphs match the platform")
            .remove(0)
    });

    let mut rows = Vec::new();
    for (v, (label, _)) in variants.iter().enumerate() {
        let mut energy = 0.0;
        let mut miss_benchmarks = 0;
        let mut total_misses = 0;
        let mut runtime = 0.0;
        for r in &per_cell[v * graphs.len()..(v + 1) * graphs.len()] {
            energy += r.energy_nj;
            total_misses += r.deadline_misses;
            if r.deadline_misses > 0 {
                miss_benchmarks += 1;
            }
            runtime += r.runtime_s;
        }
        rows.push(AblationRow {
            config: label.clone(),
            mean_energy_nj: energy / seeds as f64,
            miss_benchmarks,
            total_misses,
            mean_runtime_s: runtime / seeds as f64,
        });
    }
    rows
}

/// Baseline panorama (extension study): EAS against the energy-blind
/// baselines (EDF, Sih & Lee DLS) and the simulated-annealing quality
/// bound, on every multimedia application (foreman clip) and a reduced
/// random benchmark. Four rows per benchmark.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn baseline_comparison() -> Vec<ResultRow> {
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    let dls = DlsScheduler::new();
    let two_phase = MapThenScheduleScheduler::new();
    let anneal = AnnealScheduler::new(AnnealConfig {
        iterations: 3_000,
        ..AnnealConfig::default()
    });

    let mut rows = Vec::new();
    for app in MultimediaApp::all() {
        let (c, r) = app.recommended_mesh();
        let platform = platforms::mesh(c, r);
        let graph = app
            .build(Clip::Foreman, &platform)
            .expect("benchmark builds");
        rows.extend(
            run_schedulers(&graph, &platform, &[&eas, &dls, &edf, &two_phase, &anneal])
                .expect("benchmark graphs match their platforms"),
        );
    }
    // One reduced random benchmark (annealing at full 500-task scale is
    // out of interactive budget; the ablation binary covers EAS there).
    let platform = platforms::mesh_4x4();
    let mut cfg = TgffConfig::category_i(0);
    cfg.task_count = 120;
    cfg.width = 10;
    let graph = TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generator works");
    rows.extend(
        run_schedulers(&graph, &platform, &[&eas, &dls, &edf, &two_phase, &anneal])
            .expect("generated graphs match the platform"),
    );
    rows
}

/// Extension applications (OFDM transceiver, packet pipeline) across
/// all load profiles: EAS vs the energy-blind baselines on workload
/// regimes the multimedia set does not cover.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn extension_apps() -> Vec<ResultRow> {
    use noc_ctg::apps::{ExtensionApp, Load};
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    let dls = DlsScheduler::new();
    let mut rows = Vec::new();
    for app in ExtensionApp::all() {
        let (c, r) = app.recommended_mesh();
        let platform = platforms::mesh(c, r);
        for load in Load::all() {
            let graph = app.build(load, &platform).expect("benchmark builds");
            rows.extend(
                run_schedulers(&graph, &platform, &[&eas, &edf, &dls])
                    .expect("benchmark graphs match their platforms"),
            );
        }
    }
    rows
}

/// One row of the pipelined-encoder extension study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRow {
    /// Frames scheduled together.
    pub frames: usize,
    /// Tasks in the unrolled graph.
    pub tasks: usize,
    /// Total energy, nJ.
    pub energy_nj: f64,
    /// Energy per frame, nJ (steady-state cost).
    pub energy_per_frame_nj: f64,
    /// Unrolled-schedule makespan, ticks.
    pub makespan: u64,
    /// Effective per-frame initiation interval: `makespan / frames`.
    pub interval_per_frame: f64,
    /// Deadline misses (all frames' staggered deadlines).
    pub misses: usize,
}

/// Extension study (not in the paper, `DESIGN.md` future-work item):
/// schedule 1..=`max_frames` pipelined frames of the A/V encoder at
/// once, with the reconstructed reference frame of frame `k` feeding
/// frame `k+1`'s motion estimation. Overlapping frames lets the
/// scheduler hide communication behind adjacent-frame computation, so
/// the per-frame initiation interval drops below the single-frame
/// makespan.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn pipeline_extension(clip: Clip, max_frames: usize) -> Vec<PipelineRow> {
    use noc_ctg::pipeline::{task_by_name, unroll, InterFrameEdge};
    use noc_platform::units::{Time, Volume};

    let platform = platforms::mesh_2x2();
    let frame = MultimediaApp::AvEncoder
        .build(clip, &platform)
        .expect("benchmark builds");
    let store = task_by_name(&frame, "frame_store").expect("encoder has frame_store");
    let me = task_by_name(&frame, "motion_est").expect("encoder has motion_est");
    let template = [InterFrameEdge::new(store, me, Volume::from_bits(16_384))];
    let eas = EasScheduler::full();

    let mut rows = Vec::new();
    for frames in 1..=max_frames {
        let graph = unroll(
            &frame,
            frames,
            Time::new(noc_ctg::multimedia::ENCODER_PERIOD),
            &template,
        )
        .expect("unroll of a valid frame graph succeeds");
        let outcome = eas.schedule(&graph, &platform).expect("schedules");
        rows.push(PipelineRow {
            frames,
            tasks: graph.task_count(),
            energy_nj: outcome.stats.energy.total().as_nj(),
            energy_per_frame_nj: outcome.stats.energy.total().as_nj() / frames as f64,
            makespan: outcome.report.makespan.ticks(),
            interval_per_frame: outcome.report.makespan.as_f64() / frames as f64,
            misses: outcome.report.deadline_misses.len(),
        });
    }
    rows
}

/// One row of the robustness (runtime-jitter) study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Scheduler under test.
    pub scheduler: String,
    /// Execution-time jitter amplitude (e.g. 0.1 = ±10%).
    pub jitter: f64,
    /// Monte-Carlo trials executed.
    pub trials: usize,
    /// Trials with at least one dynamic deadline miss.
    pub miss_trials: usize,
    /// Mean dynamic makespan over the trials, ticks.
    pub mean_makespan: f64,
}

/// Robustness study (extension): replay each scheduler's A/V-integrated
/// schedule on the wormhole simulator while task runtimes deviate by
/// `±jitter` (uniform, seeded), and count how often the realized
/// execution busts a deadline. Static energy-optimal schedules pack
/// tighter than performance-driven ones, so their miss onset reveals how
/// much of the slack budget survives into the artifact.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
pub fn robustness_study(jitters: &[f64], trials: usize) -> Vec<RobustnessRow> {
    robustness_study_at_ratio(jitters, trials, 1.0)
}

/// [`robustness_study`] at a stressed performance ratio (Fig. 7's knob):
/// tighter deadlines surface the jitter sensitivity the baseline rate
/// hides behind its headroom.
///
/// # Panics
///
/// Panics only on internal scheduler errors.
#[must_use]
fn robustness_study_at_ratio(jitters: &[f64], trials: usize, ratio: f64) -> Vec<RobustnessRow> {
    try_robustness_study_at_ratio(jitters, trials, ratio).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible `robustness_study_at_ratio`: internal scheduler or
/// simulator failures surface as [`ExperimentError`] instead of a
/// panic, so batch binaries can report them and exit non-zero.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the benchmark cannot be built,
/// a scheduler fails on the pristine platform, or a Monte-Carlo replay
/// fails to execute.
pub fn try_robustness_study_at_ratio(
    jitters: &[f64],
    trials: usize,
    ratio: f64,
) -> Result<Vec<RobustnessRow>, ExperimentError> {
    use noc_platform::units::Time;
    use noc_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let platform = platforms::mesh_3x3();
    let graph = MultimediaApp::AvIntegrated
        .build_with_performance_ratio(Clip::Foreman, &platform, ratio)
        .map_err(|e| ExperimentError(format!("building the A/V benchmark failed: {e}")))?;
    let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("eas", Box::new(EasScheduler::full())),
        ("edf", Box::new(EdfScheduler::new())),
    ];
    let mut rows = Vec::new();
    for (name, scheduler) in &schedulers {
        let outcome = scheduler
            .schedule(&graph, &platform)
            .map_err(|e| ExperimentError(format!("{name} failed on the pristine platform: {e}")))?;
        let assignment: Vec<_> = outcome
            .schedule
            .task_placements()
            .iter()
            .map(|p| p.pe)
            .collect();
        let executor = ScheduleExecutor::new(&graph, &platform, SimConfig::default());
        for &jitter in jitters {
            let mut rng = StdRng::seed_from_u64(0xEA5);
            let mut miss_trials = 0usize;
            let mut makespan_sum = 0.0f64;
            for trial in 0..trials {
                let overrides: Vec<Time> = graph
                    .task_ids()
                    .map(|t| {
                        let nominal = graph.task(t).exec_time(assignment[t.index()]).as_f64();
                        let factor: f64 = rng.random_range(1.0 - jitter..=1.0 + jitter);
                        Time::new(((nominal * factor).round() as u64).max(1))
                    })
                    .collect();
                let trace = executor
                    .execute_with_exec_times(&outcome.schedule, Some(&overrides))
                    .map_err(|e| {
                        ExperimentError(format!(
                            "replaying {name} (jitter {jitter}, trial {trial}) failed: {e}"
                        ))
                    })?;
                if !trace.meets_deadlines() {
                    miss_trials += 1;
                }
                makespan_sum += trace.makespan.as_f64();
            }
            rows.push(RobustnessRow {
                scheduler: (*name).to_owned(),
                jitter,
                trials,
                miss_trials,
                mean_makespan: makespan_sum / trials as f64,
            });
        }
    }
    Ok(rows)
}

/// One row of the fault-injection sweep: one scheduler at one fault
/// count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// Scheduler under test.
    pub scheduler: String,
    /// Number of injected fault events (a PE death or a channel death).
    pub faults: usize,
    /// Monte-Carlo trials executed.
    pub trials: usize,
    /// Trials where a fault-aware static schedule existed (surviving
    /// mesh connected and the re-plan validated).
    pub repaired_trials: usize,
    /// Mean fraction of deadlines met when the *pristine* schedule keeps
    /// running while the faults strike at t = 0.
    pub unrepaired_met: f64,
    /// Mean fraction of deadlines met after masked-resource re-repair
    /// (falling back to the unrepaired figure when no repair exists).
    pub repaired_met: f64,
    /// Deadline tasks the repaired schedule meets that the unrepaired
    /// run missed, summed over all trials.
    pub recovered_deadlines: usize,
    /// Mean repaired-vs-pristine energy delta in percent, over the
    /// repaired trials (0 when none).
    pub mean_energy_delta_percent: f64,
}

/// Draws `k` distinct fault events (PE or bidirectional channel deaths,
/// 1:2 odds) without ever killing the last tile.
fn draw_faults(
    rng: &mut rand::rngs::StdRng,
    platform: &noc_platform::Platform,
    k: usize,
) -> noc_platform::fault::FaultSet {
    use noc_platform::tile::TileId;
    use rand::Rng;

    let mut fs = noc_platform::fault::FaultSet::new();
    let tiles = platform.tile_count() as u32;
    let mut events = 0usize;
    let mut guard = 0usize;
    while events < k && guard < 1_000 {
        guard += 1;
        if rng.random_range(0..3u32) == 0 {
            let t = TileId::new(rng.random_range(0..tiles));
            if !fs.tile_failed(t) && fs.failed_tiles().len() + 1 < tiles as usize {
                fs.fail_tile(t);
                events += 1;
            }
        } else {
            let links = platform.links();
            let l = links[rng.random_range(0..links.len() as u32) as usize];
            if !fs.link_failed(l) {
                fs.fail_channel(l.src, l.dst);
                events += 1;
            }
        }
    }
    fs
}

/// Fault-injection sweep (extension): graceful degradation of EAS vs EDF
/// on the A/V-integrated benchmark under `k = 0..=max_faults` random
/// permanent faults.
///
/// For every trial the same drawn fault set is measured two ways:
///
/// * **unrepaired** — the pristine schedule keeps executing on the
///   wormhole simulator while the faults strike at `t = 0`
///   ([`noc_sim::exec::ScheduleExecutor::execute_with_faults`]); stranded
///   tasks count as missed deadlines;
/// * **repaired** — the faults are masked into the platform and the
///   schedule is re-planned: EAS re-repairs the struck schedule
///   ([`noc_eas::repair::repair_with_faults`], falling back to
///   scheduling from scratch), EDF re-runs from scratch. The repaired
///   schedule is then replayed on the simulator.
///
/// Everything is deterministic for a given `seed`.
///
/// # Panics
///
/// Panics only on internal scheduler errors on the pristine platform.
#[must_use]
pub fn fault_sweep_study(max_faults: usize, trials: usize, seed: u64) -> Vec<FaultSweepRow> {
    try_fault_sweep_study(max_faults, trials, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`fault_sweep_study`]: internal errors surface as
/// [`ExperimentError`] instead of being silently skipped or panicking.
/// A fault set whose surviving mesh admits no platform or no schedule
/// is *not* an error — that trial legitimately falls back to the
/// unrepaired figure — but a failure to schedule the pristine platform
/// or to replay a schedule that was just planned is.
///
/// # Errors
///
/// Returns an [`ExperimentError`] when the benchmark cannot be built,
/// a scheduler fails on the pristine platform, a faulted execution
/// does not settle, or a freshly repaired schedule fails to replay.
pub fn try_fault_sweep_study(
    max_faults: usize,
    trials: usize,
    seed: u64,
) -> Result<Vec<FaultSweepRow>, ExperimentError> {
    use noc_eas::repair::repair_with_faults;
    use noc_platform::fault::FaultSet;
    use noc_platform::tile::PeId;
    use noc_platform::units::Time;
    use noc_schedule::ScheduleStats;
    use noc_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn met_fraction(met: &[bool]) -> f64 {
        if met.is_empty() {
            1.0
        } else {
            met.iter().filter(|&&m| m).count() as f64 / met.len() as f64
        }
    }

    fn injected(fs: &FaultSet) -> Vec<InjectedFault> {
        let mut v: Vec<InjectedFault> = fs
            .failed_tiles()
            .iter()
            .map(|t| InjectedFault::pe(Time::ZERO, PeId::new(t.index() as u32)))
            .collect();
        v.extend(
            fs.failed_links()
                .iter()
                .map(|&l| InjectedFault::link(Time::ZERO, l)),
        );
        v
    }

    let platform = platforms::mesh_3x3();
    let graph = MultimediaApp::AvIntegrated
        .build(Clip::Foreman, &platform)
        .map_err(|e| ExperimentError(format!("building the A/V benchmark failed: {e}")))?;
    let deadline_tasks: Vec<_> = graph
        .task_ids()
        .filter(|&t| graph.task(t).deadline().is_some())
        .collect();
    let deadline_of = |t: noc_ctg::task::TaskId| graph.task(t).deadline().expect("filtered");

    let schedulers: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("eas", Box::new(EasScheduler::full())),
        ("edf", Box::new(EdfScheduler::new())),
    ];
    let mut rows = Vec::new();
    for (name, scheduler) in &schedulers {
        let outcome = scheduler
            .schedule(&graph, &platform)
            .map_err(|e| ExperimentError(format!("{name} failed on the pristine platform: {e}")))?;
        let pristine_energy = outcome.stats.energy.total().as_nj();
        let executor = ScheduleExecutor::new(&graph, &platform, SimConfig::default());
        for k in 0..=max_faults {
            let mut unrepaired_sum = 0.0f64;
            let mut repaired_sum = 0.0f64;
            let mut recovered = 0usize;
            let mut repaired_trials = 0usize;
            let mut energy_delta_sum = 0.0f64;
            for trial in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed ^ ((k as u64) << 32) ^ (trial as u64));
                let fs = draw_faults(&mut rng, &platform, k);
                let unrep = executor
                    .execute_with_faults(&outcome.schedule, &injected(&fs))
                    .map_err(|e| {
                        ExperimentError(format!(
                            "faulted execution did not settle (k = {k}, trial {trial}, {name}): {e}"
                        ))
                    })?;
                let unrep_met: Vec<bool> = deadline_tasks
                    .iter()
                    .map(|&t| unrep.finish[t.index()].is_some_and(|f| f <= deadline_of(t)))
                    .collect();
                unrepaired_sum += met_fraction(&unrep_met);

                // Mask the faults into the platform and re-plan. A fault
                // set whose surviving mesh has no platform or no
                // schedule is a legitimate no-repair outcome; a replay
                // failure of a schedule planned *for that platform* is
                // an internal error and propagates.
                let faulted_platform = platforms::faulted_mesh(3, 3, fs).ok();
                let planned = faulted_platform.as_ref().and_then(|fp| {
                    if *name == "eas" {
                        repair_with_faults(&graph, fp, &outcome.schedule)
                            .map(|(s, _)| s)
                            .or_else(|| scheduler.schedule(&graph, fp).ok().map(|o| o.schedule))
                    } else {
                        scheduler.schedule(&graph, fp).ok().map(|o| o.schedule)
                    }
                });
                let repaired = match planned {
                    None => None,
                    Some(schedule) => {
                        let fp = faulted_platform.as_ref().expect("planned implies platform");
                        let trace = ScheduleExecutor::new(&graph, fp, SimConfig::default())
                            .execute(&schedule)
                            .map_err(|e| {
                                ExperimentError(format!(
                                    "replaying the repaired schedule failed \
                                     (k = {k}, trial {trial}, {name}): {e}"
                                ))
                            })?;
                        let energy = ScheduleStats::compute(&schedule, &graph, fp)
                            .energy
                            .total()
                            .as_nj();
                        Some((trace, energy))
                    }
                };
                match repaired {
                    Some((trace, energy)) => {
                        repaired_trials += 1;
                        let rep_met: Vec<bool> = deadline_tasks
                            .iter()
                            .map(|&t| trace.finish[t.index()] <= deadline_of(t))
                            .collect();
                        repaired_sum += met_fraction(&rep_met);
                        recovered += rep_met
                            .iter()
                            .zip(&unrep_met)
                            .filter(|&(&r, &u)| r && !u)
                            .count();
                        energy_delta_sum += 100.0 * (energy - pristine_energy) / pristine_energy;
                    }
                    // No fault-aware schedule exists (surviving mesh
                    // disconnected): keep limping on the old one.
                    None => repaired_sum += met_fraction(&unrep_met),
                }
            }
            rows.push(FaultSweepRow {
                scheduler: (*name).to_owned(),
                faults: k,
                trials,
                repaired_trials,
                unrepaired_met: unrepaired_sum / trials as f64,
                repaired_met: repaired_sum / trials as f64,
                recovered_deadlines: recovered,
                mean_energy_delta_percent: if repaired_trials == 0 {
                    0.0
                } else {
                    energy_delta_sum / repaired_trials as f64
                },
            });
        }
    }
    Ok(rows)
}

/// Writes a JSON artifact under `target/experiments/` (best-effort: IO
/// failures only emit a warning so batch runs keep going) and returns
/// the path written to on success.
pub fn write_json_artifact<T: Serialize>(name: &str, value: &T) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match crate::write_json(&path, value) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast shrunken category run (2 small seeds) exercising the whole
    /// pipeline; the real scale runs in the binaries.
    #[test]
    fn mini_category_run_produces_complete_rows() {
        let platform = platforms::mesh_4x4();
        let eas = EasScheduler::full();
        let edf = EdfScheduler::new();
        for seed in 0..2 {
            let g = TgffGenerator::new(TgffConfig::small(seed))
                .generate(&platform)
                .unwrap();
            let rows = run_schedulers(&g, &platform, &[&eas, &edf]).unwrap();
            assert_eq!(rows.len(), 2);
            assert!(rows[0].energy_nj <= rows[1].energy_nj * 1.05);
        }
    }

    #[test]
    fn multimedia_tables_report_savings() {
        let t = multimedia_table(MultimediaApp::AvDecoder);
        assert_eq!(t.clips.len(), 3);
        for c in &t.clips {
            assert!(c.savings_percent > 0.0, "{}: EAS must save energy", c.clip);
            assert_eq!(c.eas_misses, 0, "{}: EAS must meet deadlines", c.clip);
        }
    }

    #[test]
    fn tradeoff_energy_is_monotonic_in_shape() {
        let r = tradeoff_sweep(Clip::Foreman, &[1.0, 1.4]);
        // Tighter constraints cannot make EAS cheaper.
        assert!(r.eas_energy_nj[1] >= r.eas_energy_nj[0] * 0.999);
        // And EDF stays above EAS.
        assert!(r.edf_energy_nj[0] > r.eas_energy_nj[0]);
    }

    /// The experiment fan-out must be byte-identical for every worker
    /// count: same rows in the same order, serial vs parallel (only the
    /// wall-clock `runtime_s` measurement may differ).
    #[test]
    fn parallel_category_fanout_is_byte_identical_to_serial() {
        let platform = platforms::mesh_4x4();
        let configs: Vec<TgffConfig> = (0..3).map(TgffConfig::small).collect();
        let strip = |mut benches: Vec<Vec<ResultRow>>| -> String {
            for rows in &mut benches {
                for r in rows {
                    r.runtime_s = 0.0;
                }
            }
            serde_json::to_string(&benches).unwrap()
        };
        let serial = strip(category_rows(&platform, &configs, 1));
        let parallel = strip(category_rows(&platform, &configs, 4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_tradeoff_sweep_matches_serial() {
        let serial = tradeoff_sweep_threads(Clip::Foreman, &[1.0, 1.3], 1);
        let parallel = tradeoff_sweep_threads(Clip::Foreman, &[1.0, 1.3], 2);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn category_enum_round_trips() {
        assert_eq!(Category::I.name(), "category-I");
        assert!(Category::II.config(3).deadline_laxity < Category::I.config(3).deadline_laxity);
    }
}
