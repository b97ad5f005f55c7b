//! A parametric catalog of heterogeneous processing-element classes.
//!
//! The paper's platform mixes, e.g., "a DSP, a high performance
//! energy-hungry CPU, a low-power ARM processor" (Sec. 3.1). The authors'
//! exact power/performance characterization is not published, so this
//! module provides a parametric catalog with plausible 2004-era relative
//! figures. The scheduler consumes only the *relative* spread of
//! execution time and energy across PEs — the quantity that drives the
//! weights `W = VAR_e · VAR_r` of the EAS algorithm — so the catalog's
//! scalars set the scene without affecting the algorithmic behaviour
//! shapes (see `DESIGN.md` §4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A class of processing element with relative performance and energy
/// figures.
///
/// `speed_factor` scales execution *time* (lower is faster) and
/// `energy_factor` scales execution *energy* (lower is leaner), both
/// relative to a nominal reference PE of `1.0`/`1.0`. `affinity` biases
/// which task kinds the PE is good at (e.g. a DSP runs filter kernels
/// disproportionately fast).
///
/// ```
/// use noc_platform::catalog::PeClass;
/// let dsp = PeClass::dsp();
/// assert!(dsp.speed_factor < 1.0 || dsp.energy_factor < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeClass {
    /// Human-readable class name, e.g. `"dsp"`.
    pub name: String,
    /// Execution-time multiplier relative to the nominal PE (lower = faster).
    pub speed_factor: f64,
    /// Energy multiplier relative to the nominal PE (lower = leaner).
    pub energy_factor: f64,
    /// Affinity of the PE for "signal-processing-like" tasks in `0..=1`.
    /// Workload generators use it to skew per-task time/energy vectors:
    /// a task whose own DSP-affinity matches the PE's gets an extra
    /// speedup/energy discount.
    pub affinity: f64,
}

impl PeClass {
    /// Creates a PE class.
    ///
    /// # Panics
    ///
    /// Panics if any factor is non-positive or `affinity` is outside
    /// `0..=1`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        speed_factor: f64,
        energy_factor: f64,
        affinity: f64,
    ) -> Self {
        assert!(speed_factor > 0.0, "speed factor must be positive");
        assert!(energy_factor > 0.0, "energy factor must be positive");
        assert!((0.0..=1.0).contains(&affinity), "affinity must be in 0..=1");
        PeClass {
            name: name.into(),
            speed_factor,
            energy_factor,
            affinity,
        }
    }

    /// A high-performance, energy-hungry general-purpose CPU
    /// (think early-2000s PowerPC-class core).
    fn fast_cpu() -> Self {
        PeClass::new("fast-cpu", 0.55, 1.6, 0.2)
    }

    /// A nominal mid-range embedded CPU: the `1.0`/`1.0` reference.
    #[must_use]
    pub fn mid_cpu() -> Self {
        PeClass::new("mid-cpu", 1.0, 1.0, 0.2)
    }

    /// A low-power ARM-class processor: slow but very lean.
    fn low_power() -> Self {
        PeClass::new("low-power", 1.8, 0.62, 0.1)
    }

    /// A DSP: much faster *and* leaner on signal-processing kernels,
    /// mediocre on control code.
    #[must_use]
    pub fn dsp() -> Self {
        PeClass::new("dsp", 0.8, 0.78, 0.95)
    }
}

impl fmt::Display for PeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (speed x{:.2}, energy x{:.2})",
            self.name, self.speed_factor, self.energy_factor
        )
    }
}

/// An ordered collection of [`PeClass`]es from which platform PE mixes
/// are drawn.
///
/// ```
/// use noc_platform::catalog::PeCatalog;
/// let cat = PeCatalog::date04();
/// let mix = cat.mix_for(16);
/// assert_eq!(mix.len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeCatalog {
    classes: Vec<PeClass>,
}

impl PeCatalog {
    /// Creates a catalog from the given classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    #[must_use]
    pub fn new(classes: Vec<PeClass>) -> Self {
        assert!(!classes.is_empty(), "catalog needs at least one PE class");
        PeCatalog { classes }
    }

    /// The heterogeneous mix evoked by the paper: fast CPU, mid CPU,
    /// low-power ARM-class core and DSP.
    #[must_use]
    pub fn date04() -> Self {
        PeCatalog::new(vec![
            PeClass::fast_cpu(),
            PeClass::mid_cpu(),
            PeClass::low_power(),
            PeClass::dsp(),
        ])
    }

    /// A homogeneous catalog of nominal CPUs (useful as an experimental
    /// control: with zero heterogeneity the EAS weights collapse).
    #[must_use]
    pub fn homogeneous() -> Self {
        PeCatalog::new(vec![PeClass::mid_cpu()])
    }

    /// The classes in catalog order.
    #[must_use]
    pub fn classes(&self) -> &[PeClass] {
        &self.classes
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if the catalog has no classes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// A mix that cycles through the catalog round-robin — suitable as a
    /// default assignment of classes to tiles.
    #[must_use]
    pub fn cycle_mix(&self) -> CycleMix<'_> {
        CycleMix { catalog: self }
    }

    /// Materializes a round-robin mix of exactly `tiles` PE classes.
    #[must_use]
    pub fn mix_for(&self, tiles: usize) -> Vec<PeClass> {
        (0..tiles)
            .map(|i| self.classes[i % self.classes.len()].clone())
            .collect()
    }
}

impl Default for PeCatalog {
    fn default() -> Self {
        PeCatalog::date04()
    }
}

/// A lazy round-robin view over a catalog, consumed by
/// [`crate::PlatformBuilder::pe_mix`].
#[derive(Debug, Clone, Copy)]
pub struct CycleMix<'a> {
    catalog: &'a PeCatalog,
}

impl CycleMix<'_> {
    /// Materializes the mix for a platform of `tiles` tiles.
    #[must_use]
    pub fn materialize(&self, tiles: usize) -> Vec<PeClass> {
        self.catalog.mix_for(tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date04_catalog_is_heterogeneous() {
        let cat = PeCatalog::date04();
        assert!(cat.len() >= 3);
        let speeds: Vec<f64> = cat.classes().iter().map(|c| c.speed_factor).collect();
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "catalog should span a wide speed range");
    }

    #[test]
    fn mix_for_cycles_round_robin() {
        let cat = PeCatalog::date04();
        let mix = cat.mix_for(9);
        assert_eq!(mix.len(), 9);
        assert_eq!(mix[0], mix[4]); // 4 classes => period 4
        assert_eq!(mix[1], mix[5]);
    }

    #[test]
    fn homogeneous_catalog_has_single_class() {
        let mix = PeCatalog::homogeneous().mix_for(4);
        assert!(mix.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn rejects_non_positive_speed() {
        let _ = PeClass::new("bad", 0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_catalog() {
        let _ = PeCatalog::new(vec![]);
    }
}
