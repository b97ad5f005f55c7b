//! Synthesis of heterogeneous per-PE cost vectors.
//!
//! The paper's benchmarks come with profiled per-PE execution time and
//! energy arrays; the profiles themselves are not published. This module
//! derives plausible `R_i` / `E_i` vectors from a platform's
//! [`PeClass`]es: a task with a given *base* execution time and a given
//! DSP-affinity runs faster/leaner on PEs whose affinity matches, scaled
//! by the class speed/energy factors, with optional per-PE jitter. The
//! resulting heterogeneity (nonzero `VAR_r`, `VAR_e`) is exactly what the
//! EAS weights consume.

use rand::Rng;

use noc_platform::catalog::PeClass;
use noc_platform::units::{Energy, Time};

/// Nominal computation power used to convert execution time to energy:
/// a task running for `T` ticks on the reference PE consumes
/// `T * NOMINAL_POWER_NJ_PER_TICK` nJ.
const NOMINAL_POWER_NJ_PER_TICK: f64 = 1.0;

/// Derives per-PE execution cost vectors from PE classes.
///
/// ```
/// use noc_ctg::costs::CostSynthesizer;
/// use noc_platform::catalog::PeCatalog;
///
/// let classes = PeCatalog::date04().mix_for(4);
/// let synth = CostSynthesizer::new(&classes);
/// let (times, energies) = synth.vectors(200.0, 0.9);
/// assert_eq!(times.len(), 4);
/// assert_eq!(energies.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CostSynthesizer<'a> {
    classes: &'a [PeClass],
}

impl<'a> CostSynthesizer<'a> {
    /// Creates a synthesizer over the given per-tile PE classes.
    #[must_use]
    pub fn new(classes: &'a [PeClass]) -> Self {
        CostSynthesizer { classes }
    }

    /// Multipliers applied to the base time/energy on one class for a
    /// task with the given affinity: a perfect affinity match earns a
    /// 20% discount, a complete mismatch a 20% penalty.
    fn class_multipliers(&self, class: &PeClass, affinity: f64) -> (f64, f64) {
        let matching = 1.0 - (affinity - class.affinity).abs();
        let skew = 1.2 - 0.4 * matching;
        (class.speed_factor * skew, class.energy_factor * skew)
    }

    /// Deterministic cost vectors (no jitter) for a task with the given
    /// base execution time (ticks on the reference PE) and affinity in
    /// `0..=1`.
    #[must_use]
    pub fn vectors(&self, base_time: f64, affinity: f64) -> (Vec<Time>, Vec<Energy>) {
        let mut times = Vec::with_capacity(self.classes.len());
        let mut energies = Vec::with_capacity(self.classes.len());
        for class in self.classes {
            let (ts, es) = self.class_multipliers(class, affinity);
            times.push(Time::new(((base_time * ts).round() as u64).max(1)));
            energies.push(Energy::from_nj(
                (base_time * NOMINAL_POWER_NJ_PER_TICK * es).max(1e-6),
            ));
        }
        (times, energies)
    }

    /// Cost vectors with multiplicative per-PE jitter drawn uniformly
    /// from `1 ± jitter` (e.g. `0.1` for ±10%), modelling per-task
    /// idiosyncrasies the class factors cannot capture.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not within `0.0..1.0`.
    #[must_use]
    pub fn vectors_with_jitter<R: Rng + ?Sized>(
        &self,
        base_time: f64,
        affinity: f64,
        jitter: f64,
        rng: &mut R,
    ) -> (Vec<Time>, Vec<Energy>) {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in 0.0..1.0");
        let mut times = Vec::with_capacity(self.classes.len());
        let mut energies = Vec::with_capacity(self.classes.len());
        for class in self.classes {
            let (ts, es) = self.class_multipliers(class, affinity);
            let jt: f64 = rng.random_range(1.0 - jitter..=1.0 + jitter);
            let je: f64 = rng.random_range(1.0 - jitter..=1.0 + jitter);
            times.push(Time::new(((base_time * ts * jt).round() as u64).max(1)));
            energies.push(Energy::from_nj(
                (base_time * NOMINAL_POWER_NJ_PER_TICK * es * je).max(1e-6),
            ));
        }
        (times, energies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::catalog::PeCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heterogeneous_classes_yield_nonzero_variance() {
        let classes = PeCatalog::date04().mix_for(4);
        let synth = CostSynthesizer::new(&classes);
        let (times, energies) = synth.vectors(300.0, 0.8);
        let tmin = times.iter().min().unwrap();
        let tmax = times.iter().max().unwrap();
        assert!(tmax > tmin, "times should differ across classes: {times:?}");
        let emin = energies
            .iter()
            .map(|e| e.as_nj())
            .fold(f64::INFINITY, f64::min);
        let emax = energies.iter().map(|e| e.as_nj()).fold(0.0, f64::max);
        assert!(emax > emin);
    }

    #[test]
    fn homogeneous_classes_yield_equal_costs() {
        let classes = PeCatalog::homogeneous().mix_for(4);
        let synth = CostSynthesizer::new(&classes);
        let (times, energies) = synth.vectors(300.0, 0.5);
        assert!(times.windows(2).all(|w| w[0] == w[1]));
        assert!(energies.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dsp_affine_task_is_cheaper_on_dsp() {
        let classes = PeCatalog::date04().mix_for(4); // [fast-cpu, mid, low-power, dsp]
        let synth = CostSynthesizer::new(&classes);
        let (_, high) = synth.vectors(300.0, 0.95); // DSP-affine
        let (_, low) = synth.vectors(300.0, 0.05); // control-code task
                                                   // Energy on DSP (index 3) relative to mid CPU (index 1) should
                                                   // improve for the DSP-affine task.
        let ratio_high = high[3].as_nj() / high[1].as_nj();
        let ratio_low = low[3].as_nj() / low[1].as_nj();
        assert!(ratio_high < ratio_low);
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let classes = PeCatalog::date04().mix_for(4);
        let synth = CostSynthesizer::new(&classes);
        let (base_t, _) = synth.vectors(500.0, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let (jt, _) = synth.vectors_with_jitter(500.0, 0.5, 0.1, &mut rng);
        for (a, b) in base_t.iter().zip(&jt) {
            let ratio = b.as_f64() / a.as_f64();
            assert!(
                (0.85..=1.15).contains(&ratio),
                "jitter out of bounds: {ratio}"
            );
        }
        // Determinism under the same seed.
        let mut rng2 = StdRng::seed_from_u64(7);
        let (jt2, _) = synth.vectors_with_jitter(500.0, 0.5, 0.1, &mut rng2);
        assert_eq!(jt, jt2);
    }

    #[test]
    fn times_never_round_to_zero() {
        let classes = PeCatalog::date04().mix_for(4);
        let synth = CostSynthesizer::new(&classes);
        let (times, _) = synth.vectors(0.1, 0.5);
        assert!(times.iter().all(|t| t.ticks() >= 1));
    }
}
