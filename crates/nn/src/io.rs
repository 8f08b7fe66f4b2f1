//! Weight serialization.
//!
//! A deployed STONE localizer ships the trained encoder to the mobile device
//! (Sec. IV.A of the paper); this module provides the equivalent
//! export/import in a tiny self-describing binary format:
//!
//! ```text
//! magic "SNNW" | u32 version | u32 tensor count |
//!   per tensor: u32 rank | u32 dims... | f32 data... (all little-endian)
//! ```

use std::fmt;

use stone_tensor::Tensor;

use crate::Sequential;

const MAGIC: &[u8; 4] = b"SNNW";
const VERSION: u32 = 1;

/// Errors produced when loading serialized weights.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WeightIoError {
    /// The byte stream does not start with the expected magic/version.
    BadHeader,
    /// The byte stream ended prematurely.
    Truncated,
    /// The stored tensor count or shapes do not match the target network.
    ArchitectureMismatch {
        /// Description of what disagreed.
        detail: String,
    },
}

impl fmt::Display for WeightIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightIoError::BadHeader => write!(f, "bad weight-file header"),
            WeightIoError::Truncated => write!(f, "weight data truncated"),
            WeightIoError::ArchitectureMismatch { detail } => {
                write!(f, "weights do not match network architecture: {detail}")
            }
        }
    }
}

impl std::error::Error for WeightIoError {}

/// Serializes all trainable parameters of a network.
#[must_use]
pub fn save_weights(net: &Sequential) -> Vec<u8> {
    let params = net.params();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&(p.rank() as u32).to_le_bytes());
        for &d in p.shape() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in p.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, WeightIoError> {
        let end = self.pos + 4;
        let chunk = self.bytes.get(self.pos..end).ok_or(WeightIoError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(chunk.try_into().expect("4-byte chunk")))
    }

    fn f32(&mut self) -> Result<f32, WeightIoError> {
        Ok(f32::from_bits(self.u32()?))
    }
}

/// Loads weights previously produced by [`save_weights`] into a network of
/// the same architecture.
///
/// # Errors
///
/// Returns [`WeightIoError`] when the header is invalid, the stream is
/// truncated, or the stored shapes do not match `net`.
pub fn load_weights(net: &mut Sequential, bytes: &[u8]) -> Result<(), WeightIoError> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(WeightIoError::BadHeader);
    }
    let mut r = Reader { bytes, pos: 4 };
    if r.u32()? != VERSION {
        return Err(WeightIoError::BadHeader);
    }
    let count = r.u32()? as usize;

    // The count, every rank and every dim are checked against the network
    // before anything is allocated for them, so a stream cannot ask for
    // more memory than the network's own parameters hold. Every tensor is
    // decoded before the network is touched, so a failed load leaves the
    // parameters untouched.
    let shapes: Vec<Vec<usize>> = net.params().iter().map(|p| p.shape().to_vec()).collect();
    if count != shapes.len() {
        return Err(WeightIoError::ArchitectureMismatch {
            detail: format!("stored {count} tensors, network has {}", shapes.len()),
        });
    }
    let mut tensors = Vec::with_capacity(count);
    for (i, want) in shapes.into_iter().enumerate() {
        let rank = r.u32()? as usize;
        if rank != want.len() {
            return Err(WeightIoError::ArchitectureMismatch {
                detail: format!("tensor {i}: stored rank {rank}, network {want:?}"),
            });
        }
        let shape =
            (0..rank).map(|_| r.u32().map(|d| d as usize)).collect::<Result<Vec<_>, _>>()?;
        if shape != want {
            return Err(WeightIoError::ArchitectureMismatch {
                detail: format!("tensor {i}: stored {shape:?}, network {want:?}"),
            });
        }
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f32()?);
        }
        tensors.push(Tensor::from_vec(shape, data).expect("shape/data consistent by construction"));
    }

    for (p, t) in net.params_mut().into_iter().zip(tensors) {
        *p = t;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stone_tensor::Tensor;

    fn make_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let src = make_net(1);
        let mut dst = make_net(2);
        let x = Tensor::ones(vec![2, 3]);
        assert_ne!(src.predict(&x), dst.predict(&x));
        let bytes = save_weights(&src);
        load_weights(&mut dst, &bytes).unwrap();
        assert_eq!(src.predict(&x), dst.predict(&x));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut net = make_net(1);
        assert_eq!(load_weights(&mut net, b"NOPE0000"), Err(WeightIoError::BadHeader));
    }

    #[test]
    fn rejects_truncated() {
        let src = make_net(1);
        let bytes = save_weights(&src);
        let mut net = make_net(2);
        let err = load_weights(&mut net, &bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err, WeightIoError::Truncated);
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let src = make_net(1);
        let bytes = save_weights(&src);
        let mut rng = StdRng::seed_from_u64(0);
        let mut other = Sequential::new(vec![Box::new(Dense::new(5, 2, &mut rng))]);
        assert!(matches!(
            load_weights(&mut other, &bytes),
            Err(WeightIoError::ArchitectureMismatch { .. })
        ));
    }

    #[test]
    fn failed_load_leaves_params_untouched() {
        let src = make_net(1);
        let bytes = save_weights(&src);
        let mut dst = make_net(2);
        let x = Tensor::ones(vec![1, 3]);
        let before = dst.predict(&x);
        let _ = load_weights(&mut dst, &bytes[..bytes.len() - 1]);
        assert_eq!(dst.predict(&x), before);
    }

    /// A stream header naming a huge rank or dims must be refused before
    /// anything is allocated for it.
    #[test]
    fn rejects_hostile_counts_before_allocating() {
        let header = |fields: &[u32]| {
            let mut b = MAGIC.to_vec();
            for f in [VERSION].iter().chain(fields) {
                b.extend_from_slice(&f.to_le_bytes());
            }
            b
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![Box::new(Dense::new(3, 4, &mut rng))]);
        let before = net.predict(&Tensor::ones(vec![1, 3]));
        for stream in
            [header(&[2, u32::MAX]), header(&[2, 2, u32::MAX, u32::MAX]), header(&[u32::MAX])]
        {
            assert!(
                matches!(
                    load_weights(&mut net, &stream),
                    Err(WeightIoError::ArchitectureMismatch { .. })
                ),
                "{stream:?}"
            );
        }
        assert_eq!(net.predict(&Tensor::ones(vec![1, 3])), before);
    }
}
