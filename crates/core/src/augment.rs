//! Long-term fingerprint augmentation (Sec. IV.C, Eq. 4 of the paper).
//!
//! At batch-generation time a random fraction `p_turn_off ~ U(0, p_upper)`
//! of the *observable* APs in each fingerprint image is turned off (pixel
//! set to 0), emulating the post-deployment removal or replacement of APs
//! that the offline phase cannot foresee. The paper uses the aggressive
//! `p_upper = 0.90`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Randomly turns off observable APs in normalized fingerprint images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApDropoutAugmenter {
    p_upper: f32,
}

impl ApDropoutAugmenter {
    /// Creates an augmenter with the given `p_upper` (the paper's Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p_upper <= 1.0`.
    #[must_use]
    pub fn new(p_upper: f32) -> Self {
        assert!((0.0..=1.0).contains(&p_upper), "p_upper must be in [0, 1], got {p_upper}");
        Self { p_upper }
    }

    /// The paper's default (`p_upper = 0.90`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(0.90)
    }

    /// Upper bound of the turn-off fraction.
    #[must_use]
    pub fn p_upper(&self) -> f32 {
        self.p_upper
    }

    /// Augments one normalized image buffer in place: draws
    /// `p ~ U(0, p_upper)` and zeroes `round(p × #visible)` of the visible
    /// (non-zero) pixels, chosen uniformly without replacement.
    pub fn augment(&self, image: &mut [f32], rng: &mut StdRng) {
        if self.p_upper == 0.0 {
            return;
        }
        let mut visible: Vec<usize> =
            image.iter().enumerate().filter_map(|(i, &v)| (v > 0.0).then_some(i)).collect();
        if visible.is_empty() {
            return;
        }
        let p: f32 = rng.gen_range(0.0..=self.p_upper);
        let k = ((visible.len() as f32) * p).round() as usize;
        visible.shuffle(rng);
        for &idx in visible.iter().take(k) {
            image[idx] = 0.0;
        }
    }
}

impl Default for ApDropoutAugmenter {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn visible(img: &[f32]) -> usize {
        img.iter().filter(|&&v| v > 0.0).count()
    }

    #[test]
    fn zero_p_upper_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let aug = ApDropoutAugmenter::new(0.0);
        let mut img = vec![0.5, 0.0, 0.9, 0.1];
        let before = img.clone();
        aug.augment(&mut img, &mut rng);
        assert_eq!(img, before);
    }

    #[test]
    fn never_turns_on_pixels() {
        let mut rng = StdRng::seed_from_u64(1);
        let aug = ApDropoutAugmenter::paper_default();
        for _ in 0..50 {
            let mut img = vec![0.0, 0.4, 0.0, 0.8, 0.2, 0.0];
            aug.augment(&mut img, &mut rng);
            assert_eq!(img[0], 0.0);
            assert_eq!(img[2], 0.0);
            assert_eq!(img[5], 0.0);
            for &v in &img {
                assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn removes_at_most_p_upper_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let aug = ApDropoutAugmenter::new(0.5);
        for _ in 0..100 {
            let mut img = vec![0.5; 40];
            aug.augment(&mut img, &mut rng);
            let removed = 40 - visible(&img);
            assert!(removed <= 20, "removed {removed} > p_upper bound");
        }
    }

    #[test]
    fn mean_removal_matches_uniform_expectation() {
        // E[p] = p_upper / 2, so the mean removed fraction over many draws
        // must approach p_upper/2.
        let mut rng = StdRng::seed_from_u64(3);
        let aug = ApDropoutAugmenter::new(0.9);
        let trials = 2000;
        let mut total_removed = 0usize;
        for _ in 0..trials {
            let mut img = vec![0.5; 50];
            aug.augment(&mut img, &mut rng);
            total_removed += 50 - visible(&img);
        }
        let mean_frac = total_removed as f64 / (trials * 50) as f64;
        assert!((mean_frac - 0.45).abs() < 0.03, "mean removed fraction {mean_frac}");
    }

    #[test]
    fn handles_all_missing_image() {
        let mut rng = StdRng::seed_from_u64(4);
        let aug = ApDropoutAugmenter::paper_default();
        let mut img = vec![0.0; 9];
        aug.augment(&mut img, &mut rng);
        assert!(img.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "p_upper")]
    fn rejects_invalid_p_upper() {
        let _ = ApDropoutAugmenter::new(1.5);
    }
}
