//! Serialization across crates: dataset CSV roundtrips and encoder weight
//! export/import (the deployment path of the paper's Fig. 2).

use rand::rngs::StdRng;
use rand::SeedableRng;
use stone::{build_encoder, EncoderConfig, ImageCodec, StoneBuilder, StoneConfig, TrainerConfig};
use stone_dataset::{io, office_suite, uji_suite, SuiteConfig};
use stone_nn::{load_weights, save_weights};

#[test]
fn dataset_csv_roundtrip_all_suites_is_exact() {
    for (name, train) in [
        ("office", office_suite(&SuiteConfig::tiny(1)).train),
        ("uji", uji_suite(&SuiteConfig::tiny(1)).train),
    ] {
        let csv = io::to_csv(&train);
        let back = io::from_csv(name, &csv).expect("roundtrip parses");
        assert_eq!(back.ap_count(), train.ap_count(), "{name} ap count");
        // Bit-exact: positions, timestamps and RSSI all use shortest
        // round-trip float formatting, so nothing is truncated away.
        assert_eq!(back.records(), train.records(), "{name} records");
        assert_eq!(back.rps(), train.rps(), "{name} reference points");
    }
}

#[test]
fn trained_encoder_weights_roundtrip() {
    let suite = office_suite(&SuiteConfig::tiny(2));
    let localizer = StoneBuilder::from_config(StoneConfig {
        trainer: TrainerConfig {
            embed_dim: 4,
            epochs: 2,
            triplets_per_epoch: 32,
            batch_size: 16,
            ..TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    })
    .fit(&suite.train, 2);

    let blob = save_weights(localizer.encoder().net());

    // Fresh architecture, different init, then load.
    let codec = ImageCodec::new(suite.train.ap_count());
    let mut rng = StdRng::seed_from_u64(12345);
    let mut fresh = build_encoder(&EncoderConfig::paper(codec.side(), 4), &mut rng);
    let probe = suite.train.records()[0].rssi.as_slice();
    let x = codec.encode_batch(&[probe]);
    assert_ne!(fresh.predict(&x).into_vec(), localizer.embed(probe));

    load_weights(&mut fresh, &blob).expect("architectures match");
    assert_eq!(fresh.predict(&x).into_vec(), localizer.embed(probe));
}

#[test]
fn weight_blob_rejects_other_architecture() {
    let suite = office_suite(&SuiteConfig::tiny(3));
    let codec = ImageCodec::new(suite.train.ap_count());
    let mut rng = StdRng::seed_from_u64(1);
    let net_a = build_encoder(&EncoderConfig::paper(codec.side(), 4), &mut rng);
    let mut net_b = build_encoder(&EncoderConfig::paper(codec.side(), 8), &mut rng);
    let blob = save_weights(&net_a);
    assert!(load_weights(&mut net_b, &blob).is_err());
}
