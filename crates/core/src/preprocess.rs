//! RSSI fingerprint preprocessing (Sec. IV.B of the paper).
//!
//! RSSI values in `[-100, 0]` dBm are normalized to `[0, 1]` (0 = no
//! signal), zero-padded to the nearest square length, and reshaped into a
//! single-channel square image for the convolutional encoder.

use stone_dataset::MISSING_RSSI_DBM;
use stone_tensor::Tensor;

/// Converts raw dBm fingerprints into normalized square fingerprint images.
///
/// # Example
///
/// ```
/// use stone::ImageCodec;
///
/// let codec = ImageCodec::new(7); // 7 APs -> 3x3 image with 2 padded pixels
/// assert_eq!(codec.side(), 3);
/// let img = codec.encode(&[-100.0, -50.0, 0.0, -75.0, -100.0, -25.0, -60.0]);
/// assert_eq!(img.len(), 9);
/// assert_eq!(img[0], 0.0); // -100 dBm -> no signal
/// assert_eq!(img[2], 1.0); // 0 dBm -> full signal
/// assert_eq!(img[7], 0.0); // padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageCodec {
    ap_count: usize,
    side: usize,
}

impl ImageCodec {
    /// Creates a codec for an AP universe of the given size.
    ///
    /// # Panics
    ///
    /// Panics when `ap_count` is zero.
    #[must_use]
    pub fn new(ap_count: usize) -> Self {
        assert!(ap_count > 0, "AP universe must be non-empty");
        let side = (ap_count as f64).sqrt().ceil() as usize;
        Self { ap_count, side }
    }

    /// Number of APs in the universe.
    #[must_use]
    pub fn ap_count(&self) -> usize {
        self.ap_count
    }

    /// Side of the square fingerprint image.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total pixels of the image (`side²`, ≥ `ap_count`).
    #[must_use]
    pub fn pixels(&self) -> usize {
        self.side * self.side
    }

    /// Normalizes one RSSI value from `[-100, 0]` dBm to `[0, 1]`. A
    /// non-finite reading (NaN, ±∞) carries no signal and normalizes as a
    /// missing AP (0.0): `f32::clamp` would pass NaN straight through.
    #[must_use]
    pub fn normalize(rssi_dbm: f32) -> f32 {
        let dbm = if rssi_dbm.is_finite() { rssi_dbm } else { MISSING_RSSI_DBM };
        ((dbm.clamp(MISSING_RSSI_DBM, 0.0) - MISSING_RSSI_DBM) / -MISSING_RSSI_DBM).clamp(0.0, 1.0)
    }

    /// Encodes one raw fingerprint into a normalized, padded image buffer of
    /// length [`ImageCodec::pixels`].
    ///
    /// # Panics
    ///
    /// Panics when the fingerprint length differs from the AP universe.
    #[must_use]
    pub fn encode(&self, rssi: &[f32]) -> Vec<f32> {
        assert_eq!(rssi.len(), self.ap_count, "fingerprint AP-universe mismatch");
        let mut img = vec![0.0f32; self.pixels()];
        for (o, &v) in img.iter_mut().zip(rssi) {
            *o = Self::normalize(v);
        }
        img
    }

    /// Stacks pre-encoded image buffers into an NCHW tensor
    /// `[n, 1, side, side]`.
    ///
    /// # Panics
    ///
    /// Panics when any buffer has the wrong length or `images` is empty.
    #[must_use]
    pub fn batch_to_tensor(&self, images: &[Vec<f32>]) -> Tensor {
        assert!(!images.is_empty(), "batch must be non-empty");
        let px = self.pixels();
        let mut data = Vec::with_capacity(images.len() * px);
        for img in images {
            assert_eq!(img.len(), px, "image buffer length mismatch");
            data.extend_from_slice(img);
        }
        Tensor::from_vec(vec![images.len(), 1, self.side, self.side], data)
            .expect("length checked above")
    }

    /// Convenience: encodes raw fingerprints straight into an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics when `raw` is empty or any fingerprint has the wrong length.
    #[must_use]
    pub fn encode_batch(&self, raw: &[&[f32]]) -> Tensor {
        let images: Vec<Vec<f32>> = raw.iter().map(|r| self.encode(r)).collect();
        self.batch_to_tensor(&images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_is_ceil_sqrt() {
        assert_eq!(ImageCodec::new(1).side(), 1);
        assert_eq!(ImageCodec::new(4).side(), 2);
        assert_eq!(ImageCodec::new(5).side(), 3);
        assert_eq!(ImageCodec::new(81).side(), 9);
        assert_eq!(ImageCodec::new(82).side(), 10);
    }

    #[test]
    fn normalize_endpoints() {
        assert_eq!(ImageCodec::normalize(-100.0), 0.0);
        assert_eq!(ImageCodec::normalize(0.0), 1.0);
        assert_eq!(ImageCodec::normalize(-50.0), 0.5);
        // Out-of-range values clamp.
        assert_eq!(ImageCodec::normalize(-120.0), 0.0);
        assert_eq!(ImageCodec::normalize(10.0), 1.0);
        // Non-finite readings normalize as a missing AP.
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(ImageCodec::normalize(v).to_bits(), 0.0f32.to_bits(), "normalize({v})");
        }
    }

    #[test]
    fn encode_pads_with_zeros() {
        let codec = ImageCodec::new(3);
        let img = codec.encode(&[-100.0, -40.0, -80.0]);
        assert_eq!(img.len(), 4);
        assert_eq!(img[0], 0.0);
        assert!((img[1] - 0.6).abs() < 1e-6);
        assert_eq!(img[3], 0.0);
    }

    #[test]
    fn batch_tensor_shape() {
        let codec = ImageCodec::new(5);
        let a = codec.encode(&[-40.0; 5]);
        let b = codec.encode(&[-90.0; 5]);
        let t = codec.batch_to_tensor(&[a, b]);
        assert_eq!(t.shape(), &[2, 1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn encode_rejects_wrong_length() {
        let codec = ImageCodec::new(4);
        let _ = codec.encode(&[-40.0; 3]);
    }
}
