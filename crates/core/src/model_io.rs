//! Whole-model serialization for [`StoneLocalizer`] — the deployment format
//! of the serving layer.
//!
//! [`stone_nn::save_weights`] ships *encoder weights*; a warm model reload
//! needs the whole deployable artifact to cross a process boundary:
//! configuration (to rebuild the exact architecture), encoder weights, and
//! the enrolled reference-embedding set of the KNN head (whose insertion
//! order decides exact-distance ties). This module packs all three into one
//! versioned, little-endian binary blob:
//!
//! ```text
//! magic "STNL" | u32 version |
//!   trainer config  (u32 embed_dim, epochs, triplets_per_epoch, batch_size;
//!                    f32 margin, learning_rate, p_upper;
//!                    u8 selector tag; f64 selector_sigma_m;
//!                    u32 enroll_augment)
//!   knn config      (u32 knn_k; u8 mode tag)
//!   u32 ap_count
//!   history         (u32 count; per epoch: u32 epoch, f32 loss, f32 active)
//!   weights         (u32 byte length; stone_nn::save_weights blob)
//!   knn entries     (u32 count, u32 dim; per entry: u32 rp,
//!                    f64 x, f64 y, dim × f32 embedding)
//!   u32 crc32       (IEEE CRC32 of every preceding byte)
//! ```
//!
//! Floats are stored by bit pattern (`to_le_bytes`/`from_le_bytes`), so
//! `load(save(m))` reproduces `embed`, `locate` and `locate_batch` outputs
//! **bitwise** — pinned by the workspace round-trip tests. A failed load
//! returns [`ModelIoError`] and never panics: the serving layer feeds this
//! decoder from disk and from the network, where truncated and corrupted
//! blobs are a fact of life. Every count field is checked before any
//! allocation — against the bytes actually remaining, and inside the weight
//! block against the architecture the configuration describes — so a
//! corrupted or forged header cannot request a gigantic buffer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone_dataset::RpId;
use stone_nn::{load_weights, save_weights, WeightIoError};
use stone_radio::Point2;

use crate::encoder::{build_encoder, EncoderConfig};
use crate::knn::{EmbeddingKnn, KnnMode};
use crate::localizer::{ConfigError, StoneConfig, StoneLocalizer};
use crate::preprocess::ImageCodec;
use crate::trainer::{EpochStats, TrainedEncoder, TrainerConfig};
use crate::triplet::SelectorKind;

const MAGIC: &[u8; 4] = b"STNL";
/// The format version, and the only one [`load`] accepts. Version 2 ends
/// with a little-endian IEEE CRC32 of every preceding byte, so a flipped bit
/// anywhere in the blob — header, weights, reference set — fails [`load`]
/// with [`ModelIoError::ChecksumMismatch`] instead of silently deploying a
/// corrupted model. Version-1 blobs carried no checksum and are refused
/// with [`ModelIoError::UnsupportedVersion`], so every blob that loads has
/// been verified.
const VERSION: u32 = 2;

/// IEEE CRC32 (reflected, polynomial 0xEDB88320) — the checksum sealing a
/// blob. Bitwise implementation: model blobs are published rarely
/// and are at most a few hundred KiB, so a lookup table buys nothing here.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// Errors produced when loading a serialized [`StoneLocalizer`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelIoError {
    /// The byte stream does not start with the `STNL` magic.
    BadHeader,
    /// The stored format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        version: u32,
    },
    /// The byte stream ended before the declared content did.
    Truncated,
    /// Extra bytes follow the end of the model — the blob was concatenated
    /// with something or the length fields are corrupted.
    TrailingBytes {
        /// Number of unread bytes past the model's end.
        extra: usize,
    },
    /// A stored field holds a value no writer produces (bad enum tag,
    /// mismatched embedding dimension, zero AP universe, ...).
    InvalidField {
        /// Description of what disagreed.
        detail: String,
    },
    /// The stored configuration fails [`StoneConfig::validate`].
    InvalidConfig(ConfigError),
    /// The encoder weight block is malformed or does not match the
    /// architecture the stored configuration describes.
    Weights(WeightIoError),
    /// The blob's trailing CRC32 does not match its content — the bytes
    /// were corrupted in transit or at rest.
    ChecksumMismatch {
        /// The checksum stored in the blob's trailer.
        stored: u32,
        /// The checksum computed over the blob's content.
        computed: u32,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::BadHeader => write!(f, "bad model-file header"),
            ModelIoError::UnsupportedVersion { version } => {
                write!(f, "unsupported model format version {version} (supported: {VERSION})")
            }
            ModelIoError::Truncated => write!(f, "model data truncated"),
            ModelIoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after model end")
            }
            ModelIoError::InvalidField { detail } => write!(f, "invalid model field: {detail}"),
            ModelIoError::InvalidConfig(e) => write!(f, "stored configuration invalid: {e}"),
            ModelIoError::Weights(e) => write!(f, "encoder weights: {e}"),
            ModelIoError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "model blob corrupted: stored CRC32 {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<WeightIoError> for ModelIoError {
    fn from(e: WeightIoError) -> Self {
        ModelIoError::Weights(e)
    }
}

fn selector_tag(s: SelectorKind) -> u8 {
    match s {
        SelectorKind::FloorplanAware => 0,
        SelectorKind::Uniform => 1,
        SelectorKind::RssiHard => 2,
    }
}

fn selector_from_tag(t: u8) -> Result<SelectorKind, ModelIoError> {
    match t {
        0 => Ok(SelectorKind::FloorplanAware),
        1 => Ok(SelectorKind::Uniform),
        2 => Ok(SelectorKind::RssiHard),
        _ => Err(ModelIoError::InvalidField { detail: format!("selector tag {t}") }),
    }
}

fn mode_tag(m: KnnMode) -> u8 {
    match m {
        KnnMode::Classify => 0,
        KnnMode::WeightedRegression => 1,
    }
}

fn mode_from_tag(t: u8) -> Result<KnnMode, ModelIoError> {
    match t {
        0 => Ok(KnnMode::Classify),
        1 => Ok(KnnMode::WeightedRegression),
        _ => Err(ModelIoError::InvalidField { detail: format!("knn mode tag {t}") }),
    }
}

struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        let end = self.pos.checked_add(n).ok_or(ModelIoError::Truncated)?;
        let chunk = self.bytes.get(self.pos..end).ok_or(ModelIoError::Truncated)?;
        self.pos = end;
        Ok(chunk)
    }
    fn u8(&mut self) -> Result<u8, ModelIoError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ModelIoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte chunk")))
    }
    fn f32(&mut self) -> Result<f32, ModelIoError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4-byte chunk")))
    }
    fn f64(&mut self) -> Result<f64, ModelIoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8-byte chunk")))
    }
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }
    /// Validates that `count` records of `record_size` bytes can still be
    /// read, *before* any allocation sized by `count`.
    fn check_records(&self, count: usize, record_size: usize) -> Result<(), ModelIoError> {
        let need = count.checked_mul(record_size).ok_or(ModelIoError::Truncated)?;
        if need > self.remaining() {
            return Err(ModelIoError::Truncated);
        }
        Ok(())
    }
}

/// Trainable parameter count of the paper encoder, in checked arithmetic —
/// mirrors the `build_encoder` layer stack (conv1 + conv2 + fc + embed
/// head, weights and biases; the formula `crates/core/src/encoder.rs`
/// pins in its `param_count_is_plausible` test). `None` on overflow, which
/// only a corrupted header can produce.
fn architecture_f32_count(cfg: &EncoderConfig) -> Option<usize> {
    let kk = cfg.kernel.checked_mul(cfg.kernel)?;
    let conv1 = cfg.conv1_filters.checked_mul(kk)?.checked_add(cfg.conv1_filters)?;
    let conv2 = cfg
        .conv2_filters
        .checked_mul(cfg.conv1_filters.checked_mul(kk)?)?
        .checked_add(cfg.conv2_filters)?;
    let fc = cfg.flat_features().checked_mul(cfg.fc_units)?.checked_add(cfg.fc_units)?;
    let head = cfg.fc_units.checked_mul(cfg.embed_dim)?.checked_add(cfg.embed_dim)?;
    conv1.checked_add(conv2)?.checked_add(fc)?.checked_add(head)
}

fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Serializes a localizer (see the module docs for the format).
#[must_use]
pub fn save(loc: &StoneLocalizer) -> Vec<u8> {
    let cfg = loc.config();
    let t = &cfg.trainer;
    let mut w = Writer { bytes: Vec::new() };
    w.bytes.extend_from_slice(MAGIC);
    w.u32(VERSION);

    w.u32(t.embed_dim as u32);
    w.u32(t.epochs as u32);
    w.u32(t.triplets_per_epoch as u32);
    w.u32(t.batch_size as u32);
    w.f32(t.margin);
    w.f32(t.learning_rate);
    w.f32(t.p_upper);
    w.u8(selector_tag(t.selector));
    w.f64(t.selector_sigma_m);
    w.u32(t.enroll_augment as u32);

    w.u32(cfg.knn_k as u32);
    w.u8(mode_tag(cfg.knn_mode));

    w.u32(loc.encoder().codec().ap_count() as u32);

    let history = loc.encoder().history();
    w.u32(history.len() as u32);
    for h in history {
        w.u32(h.epoch as u32);
        w.f32(h.loss);
        w.f32(h.active_fraction);
    }

    let weights = save_weights(loc.encoder().net());
    w.u32(weights.len() as u32);
    w.bytes.extend_from_slice(&weights);

    let knn = loc.knn();
    w.u32(knn.len() as u32);
    w.u32(t.embed_dim as u32);
    for (emb, rp, pos) in knn.entries() {
        w.u32(rp.0);
        w.f64(pos.x);
        w.f64(pos.y);
        for &v in emb {
            w.f32(v);
        }
    }

    // Trailer: CRC32 of everything above, so any corruption of the blob —
    // including flipped weight bits that would otherwise decode fine — fails
    // load() instead of deploying silently.
    let crc = crc32(&w.bytes);
    w.u32(crc);
    w.bytes
}

/// Deserializes a localizer produced by [`save`].
///
/// # Errors
///
/// Returns [`ModelIoError`]; never panics on hostile input (see the module
/// docs). A blob holding a non-finite encoder parameter or reference entry
/// (embedding or position) is refused with [`ModelIoError::InvalidField`]:
/// it would make every query's nearest-neighbour ranking fail.
pub fn load(bytes: &[u8]) -> Result<StoneLocalizer, ModelIoError> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(ModelIoError::BadHeader);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte version"));
    if version != VERSION {
        return Err(ModelIoError::UnsupportedVersion { version });
    }
    // The checksum is verified over the whole content *before* any field is
    // trusted; the reader is then bounded to the content so the trailer
    // itself never parses as model data.
    let content_len =
        bytes.len().checked_sub(4).filter(|&n| n >= 8).ok_or(ModelIoError::Truncated)?;
    let stored = u32::from_le_bytes(bytes[content_len..].try_into().expect("4-byte trailer"));
    let computed = crc32(&bytes[..content_len]);
    if stored != computed {
        return Err(ModelIoError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader { bytes: &bytes[..content_len], pos: 8 };

    let trainer = TrainerConfig {
        embed_dim: r.u32()? as usize,
        epochs: r.u32()? as usize,
        triplets_per_epoch: r.u32()? as usize,
        batch_size: r.u32()? as usize,
        margin: r.f32()?,
        learning_rate: r.f32()?,
        p_upper: r.f32()?,
        selector: selector_from_tag(r.u8()?)?,
        selector_sigma_m: r.f64()?,
        enroll_augment: r.u32()? as usize,
    };
    let cfg = StoneConfig { trainer, knn_k: r.u32()? as usize, knn_mode: mode_from_tag(r.u8()?)? };
    cfg.validate().map_err(ModelIoError::InvalidConfig)?;

    let ap_count = r.u32()? as usize;
    if ap_count == 0 {
        return Err(ModelIoError::InvalidField { detail: "zero AP universe".into() });
    }
    let codec = ImageCodec::new(ap_count);
    // The paper architecture applies two 2×2 valid convolutions; a codec
    // side below 4 cannot have produced a trained encoder.
    if codec.side() < 4 {
        return Err(ModelIoError::InvalidField {
            detail: format!("AP universe of {ap_count} too small for the encoder architecture"),
        });
    }

    let history_len = r.u32()? as usize;
    r.check_records(history_len, 12)?;
    let mut history = Vec::with_capacity(history_len);
    for _ in 0..history_len {
        history.push(EpochStats {
            epoch: r.u32()? as usize,
            loss: r.f32()?,
            active_fraction: r.f32()?,
        });
    }

    let weights_len = r.u32()? as usize;
    let weights = r.take(weights_len)?;
    let enc_cfg = EncoderConfig::paper(codec.side(), trainer.embed_dim);
    // Building the network allocates every weight tensor, so the stored
    // architecture must be plausible *before* we build it: a corrupted
    // ap_count/embed_dim would otherwise request gigabytes here. The blob
    // stores exactly the architecture's f32s (plus small headers), so a
    // weight block too short to hold them proves the header lies.
    let expected_f32s = architecture_f32_count(&enc_cfg).ok_or_else(|| {
        ModelIoError::InvalidField { detail: "stored architecture size overflows".into() }
    })?;
    if weights.len() / 4 < expected_f32s {
        return Err(ModelIoError::InvalidField {
            detail: format!(
                "weight block of {} bytes cannot hold the {expected_f32s}-parameter \
                 architecture the header describes",
                weights.len()
            ),
        });
    }
    // The RNG only seeds the soon-to-be-overwritten init; any value works.
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = build_encoder(&enc_cfg, &mut rng);
    load_weights(&mut net, weights)?;
    // A non-finite weight makes every embedding NaN, and the KNN sweep
    // cannot rank NaN distances: refuse the model before it serves.
    if let Some(i) = net.params().iter().position(|p| !all_finite(p.as_slice())) {
        return Err(ModelIoError::InvalidField {
            detail: format!("encoder parameter tensor {i} holds a non-finite value"),
        });
    }

    let entry_count = r.u32()? as usize;
    let dim = r.u32()? as usize;
    if entry_count > 0 && dim != trainer.embed_dim {
        return Err(ModelIoError::InvalidField {
            detail: format!("knn dim {dim} disagrees with embed_dim {}", trainer.embed_dim),
        });
    }
    r.check_records(entry_count, 4 + 16 + dim * 4)?;
    let mut knn = EmbeddingKnn::new(cfg.knn_k, cfg.knn_mode);
    for i in 0..entry_count {
        let rp = RpId(r.u32()?);
        let pos = Point2::new(r.f64()?, r.f64()?);
        let mut emb = Vec::with_capacity(dim);
        for _ in 0..dim {
            emb.push(r.f32()?);
        }
        if !(all_finite(&emb) && pos.x.is_finite() && pos.y.is_finite()) {
            return Err(ModelIoError::InvalidField {
                detail: format!("reference entry {i} holds a non-finite value"),
            });
        }
        knn.insert(emb, rp, pos);
    }

    if r.remaining() > 0 {
        return Err(ModelIoError::TrailingBytes { extra: r.remaining() });
    }

    Ok(StoneLocalizer::from_parts(cfg, TrainedEncoder::from_parts(net, codec, history), knn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::StoneBuilder;
    use stone_dataset::{office_suite, SuiteConfig};

    fn tiny_localizer(seed: u64) -> StoneLocalizer {
        let suite = office_suite(&SuiteConfig::tiny(seed));
        StoneBuilder::from_config(StoneConfig {
            trainer: TrainerConfig {
                embed_dim: 4,
                epochs: 2,
                triplets_per_epoch: 32,
                batch_size: 16,
                ..TrainerConfig::quick()
            },
            knn_k: 3,
            knn_mode: KnnMode::WeightedRegression,
        })
        .fit(&suite.train, seed)
    }

    #[test]
    fn reserialization_is_byte_identical() {
        let loc = tiny_localizer(1);
        let blob = save(&loc);
        let loaded = load(&blob).expect("roundtrip");
        assert_eq!(save(&loaded), blob, "save ∘ load must be the identity on bytes");
        assert_eq!(loaded.config(), loc.config());
        assert_eq!(loaded.encoder().history(), loc.encoder().history());
        assert_eq!(loaded.knn().len(), loc.knn().len());
    }

    /// Recomputes the CRC32 trailer after a test deliberately
    /// corrupted some field, so the *structural* validation under test is
    /// reached instead of the checksum tripping first.
    fn reseal(blob: &mut [u8]) {
        let n = blob.len() - 4;
        let crc = crc32(&blob[..n]);
        blob[n..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert_eq!(load(b"").unwrap_err(), ModelIoError::BadHeader);
        assert_eq!(load(b"NOPE\x01\x00\x00\x00").unwrap_err(), ModelIoError::BadHeader);
        let mut blob = save(&tiny_localizer(2));
        blob[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(load(&blob).unwrap_err(), ModelIoError::UnsupportedVersion { version: 99 });
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut blob = save(&tiny_localizer(3));
        blob.extend_from_slice(b"junk");
        reseal(&mut blob);
        assert_eq!(load(&blob).unwrap_err(), ModelIoError::TrailingBytes { extra: 4 });
    }

    #[test]
    fn rejects_bad_enum_tags() {
        let blob = save(&tiny_localizer(4));
        // Selector tag sits right after the seven u32/f32 trainer fields:
        // 8 (header) + 4*4 + 3*4 = 36.
        let mut bad = blob.clone();
        bad[36] = 7;
        reseal(&mut bad);
        assert!(matches!(load(&bad).unwrap_err(), ModelIoError::InvalidField { .. }));
        // KNN mode tag: selector (1) + sigma (8) + enroll (4) + knn_k (4)
        // further along.
        let mut bad = blob;
        bad[36 + 1 + 8 + 4 + 4] = 9;
        reseal(&mut bad);
        assert!(matches!(load(&bad).unwrap_err(), ModelIoError::InvalidField { .. }));
    }

    #[test]
    fn rejects_invalid_stored_config() {
        let mut blob = save(&tiny_localizer(5));
        // Zero out knn_k (offset 36 + 1 + 8 + 4).
        blob[49..53].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut blob);
        assert!(matches!(
            load(&blob).unwrap_err(),
            ModelIoError::InvalidConfig(ConfigError::ZeroKnnK)
        ));
    }

    #[test]
    fn huge_ap_count_rejected_before_building_the_network() {
        // ap_count (offset 54) blown up to u32::MAX describes a network of
        // ~5e13 parameters; the decoder must reject from the weight-block
        // length alone, before build_encoder can allocate gigabytes.
        let mut blob = save(&tiny_localizer(7));
        blob[54..58].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut blob);
        assert!(matches!(load(&blob).unwrap_err(), ModelIoError::InvalidField { .. }));
    }

    #[test]
    fn corrupt_count_fields_cannot_allocate_unbounded() {
        // Blow the history count up to u32::MAX: the decoder must bounds-
        // check against the remaining bytes, not allocate 4 billion entries.
        let blob = save(&tiny_localizer(6));
        // History count offset: 36 + 1 + 8 + 4 (trainer tail) + 4 + 1
        // (knn cfg) + 4 (ap_count) = 58.
        let mut bad = blob;
        bad[58..62].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        assert_eq!(load(&bad).unwrap_err(), ModelIoError::Truncated);
    }

    #[test]
    fn resealed_weight_rank_is_refused_before_allocating() {
        // CRC32 is no signature: anyone can recompute it. A weight tensor
        // rank of u32::MAX inside a resealed blob must be refused from the
        // architecture, not handed to an allocator. The first tensor's rank
        // follows the weight block's magic, version and tensor count.
        let loc = tiny_localizer(11);
        let mut blob = save(&loc);
        let rank_at = 58 + 4 + 12 * loc.encoder().history().len() + 4 + 12;
        assert_eq!(blob[rank_at..rank_at + 4], 2u32.to_le_bytes(), "conv weight is rank 2");
        blob[rank_at..rank_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut blob);
        assert!(matches!(
            load(&blob).unwrap_err(),
            ModelIoError::Weights(WeightIoError::ArchitectureMismatch { .. })
        ));
    }

    #[test]
    fn flipped_weight_byte_fails_the_checksum() {
        // A bit flip deep in the weight block decodes as a perfectly valid
        // (wrong) f32 — only the CRC can catch it. Before version 2 this
        // blob would have loaded and served silently-corrupted answers.
        let blob = save(&tiny_localizer(8));
        let mut bad = blob.clone();
        let mid = blob.len() * 2 / 3; // deep inside the weight/knn payload
        bad[mid] ^= 0x40;
        match load(&bad).unwrap_err() {
            ModelIoError::ChecksumMismatch { stored, computed } => {
                assert_ne!(stored, computed);
                assert_eq!(stored, u32::from_le_bytes(blob[blob.len() - 4..].try_into().unwrap()));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_blobs_without_checksum_are_refused() {
        // A version-1 blob is the version-2 content minus the CRC trailer
        // with the version field rewound — published by any pre-CRC build.
        // Loading it would skip the checksum, so it is refused outright.
        let loc = tiny_localizer(9);
        let v2 = save(&loc);
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(load(&v1).unwrap_err(), ModelIoError::UnsupportedVersion { version: 1 });
    }

    #[test]
    fn rejects_non_finite_weights_and_references() {
        let loc = tiny_localizer(10);
        let blob = save(&loc);
        assert!(load(&blob).is_ok());
        let f32_at = |b: &[u8], at: usize| f32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        // The first conv weight: the weight block follows the history
        // (count at 58, 12 bytes per epoch) and its u32 length; inside it,
        // magic, version and tensor count (12 bytes) and the first tensor's
        // rank and two dims (12 bytes) precede the data.
        let conv_w = 58 + 4 + 12 * loc.encoder().history().len() + 4 + 24;
        assert_eq!(f32_at(&blob, conv_w), loc.encoder().net().params()[0].as_slice()[0]);
        // The last reference embedding value sits right before the CRC.
        let last_ref = blob.len() - 8;
        let (last_emb, _, _) = loc.knn().entries().last().unwrap();
        assert_eq!(f32_at(&blob, last_ref), *last_emb.last().unwrap());

        for (at, value) in [(conv_w, f32::NAN), (last_ref, f32::INFINITY)] {
            let mut bad = blob.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bad);
            assert!(
                matches!(load(&bad).unwrap_err(), ModelIoError::InvalidField { .. }),
                "{value} at byte {at} must be refused"
            );
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical check value of IEEE CRC32: crc("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
