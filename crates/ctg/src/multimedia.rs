//! The paper's multimedia system benchmarks (MSB) as synthetic profiled
//! CTGs.
//!
//! Sec. 6.2 of the paper evaluates three systems:
//!
//! 1. an **MP3/H.263 A/V encoder** pair partitioned into 24 tasks,
//!    scheduled on a 2x2 heterogeneous NoC,
//! 2. an **MP3/H.263 A/V decoder** pair with 16 tasks on a 2x2 NoC,
//! 3. the **integrated** encoder + decoder system with 40 tasks on a
//!    3x3 NoC,
//!
//! each profiled with three video clips (*akiyo*, *foreman*, *toybox*).
//! The authors' profiled task graphs are not published, so this module
//! reconstructs structurally faithful task graphs from the well-known
//! MP3 and H.263 codec block diagrams (sub-band analysis / MDCT /
//! psychoacoustics / quantization / Huffman on the audio side; motion
//! estimation / DCT / quantization / reconstruction loop / VLC on the
//! video side), and models clips as complexity profiles that scale the
//! motion-, texture- and audio-dependent task costs and communication
//! volumes. See `DESIGN.md` §4 for the substitution rationale.

use serde::{Deserialize, Serialize};
use std::fmt;

use noc_platform::units::{Time, Volume};
use noc_platform::Platform;

use crate::costs::CostSynthesizer;
use crate::graph::{TaskGraph, TaskGraphBuilder};
use crate::task::{Task, TaskId};
use crate::CtgError;

/// Encoder frame period in ticks at performance ratio 1.0 (the paper's
/// baseline 40 frames/s).
pub const ENCODER_PERIOD: u64 = 12_000;
/// Decoder frame period in ticks at performance ratio 1.0 (the paper's
/// baseline 67 frames/s, i.e. `40/67` of the encoder period).
const DECODER_PERIOD: u64 = 7_200;

/// A video clip complexity profile.
///
/// ```
/// use noc_ctg::multimedia::Clip;
/// assert!(Clip::Toybox.motion() > Clip::Akiyo.motion());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Clip {
    /// Head-and-shoulders news sequence: little motion, smooth texture.
    Akiyo,
    /// Construction-site sequence: medium motion and texture.
    Foreman,
    /// Toy-box sequence: high motion, busy texture.
    Toybox,
}

impl Clip {
    /// All clips in paper order.
    #[must_use]
    pub const fn all() -> [Clip; 3] {
        [Clip::Akiyo, Clip::Foreman, Clip::Toybox]
    }

    /// Lower-case clip name as used in the paper's tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Clip::Akiyo => "akiyo",
            Clip::Foreman => "foreman",
            Clip::Toybox => "toybox",
        }
    }

    /// Motion-complexity multiplier (drives ME/MC and residual coding).
    #[must_use]
    pub const fn motion(self) -> f64 {
        match self {
            Clip::Akiyo => 0.6,
            Clip::Foreman => 1.0,
            Clip::Toybox => 1.4,
        }
    }

    /// Texture-complexity multiplier (drives DCT/quantizer/VLC).
    #[must_use]
    pub const fn texture(self) -> f64 {
        match self {
            Clip::Akiyo => 0.8,
            Clip::Foreman => 1.0,
            Clip::Toybox => 1.2,
        }
    }

    /// Audio-complexity multiplier (drives the MP3 chain).
    #[must_use]
    pub const fn audio(self) -> f64 {
        match self {
            Clip::Akiyo => 0.9,
            Clip::Foreman => 1.0,
            Clip::Toybox => 1.1,
        }
    }
}

impl fmt::Display for Clip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which clip-complexity dimension scales a task or transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Fixed,
    Motion,
    Texture,
    Audio,
}

impl Scale {
    fn factor(self, clip: Clip) -> f64 {
        match self {
            Scale::Fixed => 1.0,
            Scale::Motion => clip.motion(),
            Scale::Texture => clip.texture(),
            Scale::Audio => clip.audio(),
        }
    }
}

/// Declarative task row: (name, base time, DSP affinity, scaling).
struct TaskSpec(&'static str, f64, f64, Scale);
/// Declarative edge row: (src name, dst name, base bits, scaling).
struct EdgeSpec(&'static str, &'static str, u64, Scale);

/// The multimedia system benchmark applications of Sec. 6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultimediaApp {
    /// MP3 + H.263 encoder pair, 24 tasks (Table 1).
    AvEncoder,
    /// MP3 + H.263 decoder pair, 16 tasks (Table 2).
    AvDecoder,
    /// Integrated encoder + decoder system, 40 tasks (Table 3).
    AvIntegrated,
}

impl MultimediaApp {
    /// All applications in paper order.
    #[must_use]
    pub const fn all() -> [MultimediaApp; 3] {
        [
            MultimediaApp::AvEncoder,
            MultimediaApp::AvDecoder,
            MultimediaApp::AvIntegrated,
        ]
    }

    /// The task count the paper reports for the application.
    #[must_use]
    pub const fn task_count(self) -> usize {
        match self {
            MultimediaApp::AvEncoder => 24,
            MultimediaApp::AvDecoder => 16,
            MultimediaApp::AvIntegrated => 40,
        }
    }

    /// The mesh `(cols, rows)` the paper schedules the application onto.
    #[must_use]
    pub const fn recommended_mesh(self) -> (u16, u16) {
        match self {
            MultimediaApp::AvEncoder | MultimediaApp::AvDecoder => (2, 2),
            MultimediaApp::AvIntegrated => (3, 3),
        }
    }

    /// Short name for reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MultimediaApp::AvEncoder => "av-encoder",
            MultimediaApp::AvDecoder => "av-decoder",
            MultimediaApp::AvIntegrated => "av-integrated",
        }
    }

    /// Builds the application's CTG for `clip` at the baseline
    /// performance (ratio 1.0).
    ///
    /// # Errors
    ///
    /// Propagates [`CtgError`] from graph assembly.
    pub fn build(self, clip: Clip, platform: &Platform) -> Result<TaskGraph, CtgError> {
        self.build_with_performance_ratio(clip, platform, 1.0)
    }

    /// Builds the application's CTG with all deadlines divided by
    /// `ratio` — the paper's Fig. 7 "unified performance ratio" sweep
    /// (e.g. `1.4` means 40 x 1.4 = 56 encoded frames/s and
    /// 67 x 1.4 ≈ 93.8 decoded frames/s are required).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    ///
    /// # Errors
    ///
    /// Propagates [`CtgError`] from graph assembly.
    pub fn build_with_performance_ratio(
        self,
        clip: Clip,
        platform: &Platform,
        ratio: f64,
    ) -> Result<TaskGraph, CtgError> {
        assert!(ratio > 0.0, "performance ratio must be positive");
        let name = format!("{}-{}", self.name(), clip.name());
        let mut builder = TaskGraph::builder(name, platform.tile_count());
        match self {
            MultimediaApp::AvEncoder => {
                build_section(
                    &mut builder,
                    platform,
                    clip,
                    ratio,
                    &encoder_tasks(),
                    &encoder_edges(),
                    "",
                )?;
            }
            MultimediaApp::AvDecoder => {
                build_section(
                    &mut builder,
                    platform,
                    clip,
                    ratio,
                    &decoder_tasks(),
                    &decoder_edges(),
                    "",
                )?;
            }
            MultimediaApp::AvIntegrated => {
                build_section(
                    &mut builder,
                    platform,
                    clip,
                    ratio,
                    &encoder_tasks(),
                    &encoder_edges(),
                    "enc.",
                )?;
                build_section(
                    &mut builder,
                    platform,
                    clip,
                    ratio,
                    &decoder_tasks(),
                    &decoder_edges(),
                    "dec.",
                )?;
            }
        }
        builder.build()
    }
}

impl fmt::Display for MultimediaApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// MP3 + H.263 **encoder**: 24 tasks. Names, base times (ticks on the
/// reference PE), DSP affinity, and the clip dimension that scales them.
fn encoder_tasks() -> Vec<TaskSpec> {
    vec![
        // --- MP3 encoder chain (9 tasks) ---
        TaskSpec("src_audio", 220.0, 0.10, Scale::Fixed),
        TaskSpec("subband_l", 620.0, 0.92, Scale::Audio),
        TaskSpec("subband_r", 620.0, 0.92, Scale::Audio),
        TaskSpec("mdct_l", 540.0, 0.96, Scale::Audio),
        TaskSpec("mdct_r", 540.0, 0.96, Scale::Audio),
        TaskSpec("psycho", 900.0, 0.70, Scale::Audio),
        TaskSpec("quant_a", 760.0, 0.62, Scale::Audio),
        TaskSpec("huffman", 500.0, 0.28, Scale::Audio),
        TaskSpec("pack_audio", 260.0, 0.12, Scale::Fixed),
        // --- H.263 encoder chain (14 tasks) ---
        TaskSpec("src_video", 320.0, 0.08, Scale::Fixed),
        TaskSpec("preproc", 560.0, 0.55, Scale::Texture),
        TaskSpec("motion_est", 1_500.0, 0.85, Scale::Motion),
        TaskSpec("motion_comp", 760.0, 0.82, Scale::Motion),
        TaskSpec("dct", 820.0, 0.97, Scale::Texture),
        TaskSpec("quant_v", 520.0, 0.66, Scale::Texture),
        TaskSpec("zigzag", 240.0, 0.40, Scale::Texture),
        TaskSpec("vlc", 640.0, 0.30, Scale::Texture),
        TaskSpec("rate_ctrl", 300.0, 0.18, Scale::Fixed),
        TaskSpec("inv_quant", 380.0, 0.68, Scale::Texture),
        TaskSpec("idct", 780.0, 0.97, Scale::Texture),
        TaskSpec("reconstruct", 480.0, 0.60, Scale::Motion),
        TaskSpec("loop_filter", 520.0, 0.78, Scale::Texture),
        TaskSpec("frame_store", 280.0, 0.15, Scale::Fixed),
        // --- A/V mux (1 task) ---
        TaskSpec("mux", 240.0, 0.10, Scale::Fixed),
    ]
}

fn encoder_edges() -> Vec<EdgeSpec> {
    vec![
        // MP3 side.
        EdgeSpec("src_audio", "subband_l", 4_096, Scale::Audio),
        EdgeSpec("src_audio", "subband_r", 4_096, Scale::Audio),
        EdgeSpec("src_audio", "psycho", 4_096, Scale::Audio),
        EdgeSpec("subband_l", "mdct_l", 3_072, Scale::Audio),
        EdgeSpec("subband_r", "mdct_r", 3_072, Scale::Audio),
        EdgeSpec("mdct_l", "quant_a", 3_072, Scale::Audio),
        EdgeSpec("mdct_r", "quant_a", 3_072, Scale::Audio),
        EdgeSpec("psycho", "quant_a", 1_024, Scale::Audio),
        EdgeSpec("quant_a", "huffman", 2_048, Scale::Audio),
        EdgeSpec("huffman", "pack_audio", 1_536, Scale::Audio),
        EdgeSpec("pack_audio", "mux", 1_536, Scale::Audio),
        // H.263 side.
        EdgeSpec("src_video", "preproc", 16_384, Scale::Fixed),
        EdgeSpec("preproc", "motion_est", 16_384, Scale::Fixed),
        EdgeSpec("preproc", "motion_comp", 16_384, Scale::Fixed),
        EdgeSpec("motion_est", "motion_comp", 1_024, Scale::Motion),
        EdgeSpec("motion_comp", "dct", 8_192, Scale::Motion),
        EdgeSpec("dct", "quant_v", 6_144, Scale::Texture),
        EdgeSpec("quant_v", "zigzag", 4_096, Scale::Texture),
        EdgeSpec("zigzag", "vlc", 4_096, Scale::Texture),
        EdgeSpec("vlc", "rate_ctrl", 512, Scale::Fixed),
        EdgeSpec("vlc", "mux", 3_072, Scale::Texture),
        EdgeSpec("quant_v", "inv_quant", 4_096, Scale::Texture),
        EdgeSpec("inv_quant", "idct", 6_144, Scale::Texture),
        EdgeSpec("idct", "reconstruct", 8_192, Scale::Texture),
        EdgeSpec("motion_comp", "reconstruct", 8_192, Scale::Motion),
        EdgeSpec("reconstruct", "loop_filter", 16_384, Scale::Fixed),
        EdgeSpec("loop_filter", "frame_store", 16_384, Scale::Fixed),
    ]
}

/// MP3 + H.263 **decoder**: 16 tasks.
fn decoder_tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec("demux", 260.0, 0.10, Scale::Fixed),
        // MP3 decoder chain (7 tasks).
        TaskSpec("huff_dec", 520.0, 0.30, Scale::Audio),
        TaskSpec("dequant_a", 460.0, 0.62, Scale::Audio),
        TaskSpec("imdct_l", 560.0, 0.96, Scale::Audio),
        TaskSpec("imdct_r", 560.0, 0.96, Scale::Audio),
        TaskSpec("synth_l", 640.0, 0.92, Scale::Audio),
        TaskSpec("synth_r", 640.0, 0.92, Scale::Audio),
        TaskSpec("audio_out", 240.0, 0.12, Scale::Fixed),
        // H.263 decoder chain (8 tasks).
        TaskSpec("vld", 620.0, 0.30, Scale::Texture),
        TaskSpec("dequant_v", 380.0, 0.68, Scale::Texture),
        TaskSpec("idct_d", 780.0, 0.97, Scale::Texture),
        TaskSpec("motion_comp_d", 720.0, 0.82, Scale::Motion),
        TaskSpec("reconstruct_d", 460.0, 0.60, Scale::Motion),
        TaskSpec("frame_store_d", 280.0, 0.15, Scale::Fixed),
        TaskSpec("post_filter", 540.0, 0.75, Scale::Texture),
        TaskSpec("display", 300.0, 0.10, Scale::Fixed),
    ]
}

fn decoder_edges() -> Vec<EdgeSpec> {
    vec![
        EdgeSpec("demux", "huff_dec", 1_536, Scale::Audio),
        EdgeSpec("huff_dec", "dequant_a", 2_048, Scale::Audio),
        EdgeSpec("dequant_a", "imdct_l", 3_072, Scale::Audio),
        EdgeSpec("dequant_a", "imdct_r", 3_072, Scale::Audio),
        EdgeSpec("imdct_l", "synth_l", 3_072, Scale::Audio),
        EdgeSpec("imdct_r", "synth_r", 3_072, Scale::Audio),
        EdgeSpec("synth_l", "audio_out", 4_096, Scale::Audio),
        EdgeSpec("synth_r", "audio_out", 4_096, Scale::Audio),
        EdgeSpec("demux", "vld", 3_072, Scale::Texture),
        EdgeSpec("vld", "dequant_v", 4_096, Scale::Texture),
        EdgeSpec("dequant_v", "idct_d", 6_144, Scale::Texture),
        EdgeSpec("vld", "motion_comp_d", 1_024, Scale::Motion),
        EdgeSpec("idct_d", "reconstruct_d", 8_192, Scale::Texture),
        EdgeSpec("motion_comp_d", "reconstruct_d", 8_192, Scale::Motion),
        EdgeSpec("reconstruct_d", "frame_store_d", 16_384, Scale::Fixed),
        EdgeSpec("reconstruct_d", "post_filter", 16_384, Scale::Fixed),
        EdgeSpec("post_filter", "display", 16_384, Scale::Fixed),
    ]
}

/// Instantiates a task/edge table into `builder`, scaling costs by the
/// clip profile and deadlines by `1/ratio`.
fn build_section(
    builder: &mut TaskGraphBuilder,
    platform: &Platform,
    clip: Clip,
    ratio: f64,
    tasks: &[TaskSpec],
    edges: &[EdgeSpec],
    prefix: &str,
) -> Result<(), CtgError> {
    let synth = CostSynthesizer::new(platform.pe_classes());
    let is_decoder_section = tasks.iter().any(|t| t.0 == "demux");
    let period = if is_decoder_section {
        DECODER_PERIOD
    } else {
        ENCODER_PERIOD
    };
    let deadline = Time::new(((period as f64) / ratio).round() as u64);

    let base = builder.task_count() as u32;
    let mut index_of = std::collections::HashMap::new();
    for (i, TaskSpec(name, base_time, affinity, scale)) in tasks.iter().enumerate() {
        let scaled = base_time * scale.factor(clip);
        let (times, energies) = synth.vectors(scaled, *affinity);
        let mut task = Task::new(format!("{prefix}{name}"), times, energies);
        // Sinks of the per-frame dataflow must finish within the frame
        // period (resolved after edges are known; here we mark everything
        // and strip non-sinks below).
        task = task.with_deadline(deadline);
        let id = builder.add_task(task);
        index_of.insert(*name, id);
        debug_assert_eq!(id, TaskId::new(base + i as u32));
    }
    for EdgeSpec(src, dst, bits, scale) in edges {
        let v = Volume::from_bits(((*bits as f64) * scale.factor(clip)).round() as u64);
        builder.add_edge(index_of[src], index_of[dst], v)?;
    }
    // Keep deadlines only on dataflow sinks: interior tasks inherit their
    // constraints through the graph (the paper specifies deadlines per
    // constrained task; a per-frame pipeline constrains its outputs).
    let mut has_out = vec![false; tasks.len()];
    for EdgeSpec(src, _, _, _) in edges {
        has_out[index_of[src].index() - base as usize] = true;
    }
    for (i, TaskSpec(name, ..)) in tasks.iter().enumerate() {
        if has_out[i] {
            let id = index_of[name];
            let t = builder.task_mut(id);
            *t = t.clone().with_deadline(Time::INFINITY);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::prelude::*;

    fn mesh(cols: u16, rows: u16) -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(cols, rows))
            .build()
            .unwrap()
    }

    #[test]
    fn task_counts_match_the_paper() {
        let p22 = mesh(2, 2);
        let p33 = mesh(3, 3);
        for app in MultimediaApp::all() {
            let platform = if app == MultimediaApp::AvIntegrated {
                &p33
            } else {
                &p22
            };
            let g = app.build(Clip::Foreman, platform).unwrap();
            assert_eq!(g.task_count(), app.task_count(), "{app}");
        }
    }

    #[test]
    fn graphs_are_dags_with_deadlines_on_sinks() {
        let p = mesh(2, 2);
        let g = MultimediaApp::AvEncoder.build(Clip::Akiyo, &p).unwrap();
        for s in g.sinks() {
            assert!(
                g.task(s).has_deadline(),
                "sink {} must carry a deadline",
                g.task(s).name()
            );
        }
        // Interior tasks carry none.
        for t in g.task_ids() {
            if g.outgoing(t).iter().next().is_some() {
                assert!(
                    !g.task(t).has_deadline(),
                    "interior {} has deadline",
                    g.task(t).name()
                );
            }
        }
    }

    #[test]
    fn toybox_is_heavier_than_akiyo() {
        let p = mesh(2, 2);
        let heavy = MultimediaApp::AvEncoder.build(Clip::Toybox, &p).unwrap();
        let light = MultimediaApp::AvEncoder.build(Clip::Akiyo, &p).unwrap();
        let work =
            |g: &TaskGraph| -> f64 { g.task_ids().map(|t| g.task(t).mean_exec_time()).sum() };
        assert!(work(&heavy) > work(&light));
        assert!(heavy.total_volume() > light.total_volume());
    }

    #[test]
    fn performance_ratio_tightens_deadlines() {
        let p = mesh(2, 2);
        let base = MultimediaApp::AvEncoder.build(Clip::Foreman, &p).unwrap();
        let tight = MultimediaApp::AvEncoder
            .build_with_performance_ratio(Clip::Foreman, &p, 1.5)
            .unwrap();
        for (a, b) in base.task_ids().zip(tight.task_ids()) {
            match (base.task(a).deadline(), tight.task(b).deadline()) {
                (Some(da), Some(db)) => {
                    assert_eq!(db.ticks(), ((da.ticks() as f64) / 1.5).round() as u64)
                }
                (None, None) => {}
                _ => panic!("deadline presence must not change with ratio"),
            }
        }
    }

    #[test]
    fn integrated_app_is_disjoint_union() {
        let p = mesh(3, 3);
        let g = MultimediaApp::AvIntegrated
            .build(Clip::Foreman, &p)
            .unwrap();
        assert_eq!(g.task_count(), 40);
        // Encoder tasks are prefixed enc., decoder tasks dec..
        let enc = g
            .tasks()
            .iter()
            .filter(|t| t.name().starts_with("enc."))
            .count();
        let dec = g
            .tasks()
            .iter()
            .filter(|t| t.name().starts_with("dec."))
            .count();
        assert_eq!(enc, 24);
        assert_eq!(dec, 16);
        // No cross edges.
        for e in g.edges() {
            let a = g.task(e.src).name().starts_with("enc.");
            let b = g.task(e.dst).name().starts_with("enc.");
            assert_eq!(a, b, "encoder and decoder subgraphs must be disjoint");
        }
    }

    #[test]
    fn decoder_deadline_is_tighter_than_encoder() {
        let p = mesh(3, 3);
        let g = MultimediaApp::AvIntegrated
            .build(Clip::Foreman, &p)
            .unwrap();
        let enc_deadline = g
            .task_ids()
            .filter(|&t| g.task(t).name().starts_with("enc.") && g.task(t).has_deadline())
            .map(|t| g.task(t).deadline().unwrap())
            .max()
            .unwrap();
        let dec_deadline = g
            .task_ids()
            .filter(|&t| g.task(t).name().starts_with("dec.") && g.task(t).has_deadline())
            .map(|t| g.task(t).deadline().unwrap())
            .max()
            .unwrap();
        assert!(dec_deadline < enc_deadline);
    }

    #[test]
    #[should_panic(expected = "performance ratio")]
    fn non_positive_ratio_is_rejected() {
        let p = mesh(2, 2);
        let _ = MultimediaApp::AvEncoder.build_with_performance_ratio(Clip::Akiyo, &p, 0.0);
    }

    #[test]
    fn dsp_kernels_have_high_variance_on_heterogeneous_mesh() {
        let p = mesh(2, 2);
        let g = MultimediaApp::AvEncoder.build(Clip::Foreman, &p).unwrap();
        let dct = g.task_ids().find(|&t| g.task(t).name() == "dct").unwrap();
        assert!(g.task(dct).exec_time_variance() > 0.0);
        assert!(g.task(dct).exec_energy_variance() > 0.0);
    }
}
