//! A standalone framed-TCP localization server: trains an office
//! deployment, publishes it for one or more venues, and serves scans over
//! the `stone-net` wire protocol until you press Enter (or stdin closes),
//! then drains gracefully and prints the final ledgers.
//!
//! Query it from another process with `stone_repro::net::NetClient`
//! (`locate` for a scan, `fetch_stats`/`fetch_trace` for the telemetry;
//! the README's "Over the wire" and "Watching a fleet" sections have
//! snippets). For load numbers, run perfbench's `fleet_16venue` workload.
//!
//! Knobs (environment): `NETSERVE_ADDR` (default `127.0.0.1:7600`),
//! `NETSERVE_VENUES` (default 1), `STONE_THREADS` for the kernel budget.

use std::sync::Arc;
use std::time::Duration;

use stone_repro::dataset::office_suite;
use stone_repro::net::NetServer;
use stone_repro::prelude::*;

fn fmt_latency(d: Option<Duration>) -> String {
    d.map_or_else(|| "-".into(), |d| format!("{d:.1?}"))
}

fn main() {
    let addr = std::env::var("NETSERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7600".into());
    let n_venues: usize = std::env::var("NETSERVE_VENUES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);

    let suite = office_suite(&SuiteConfig::new(7).with_train_fpr(3));
    println!("netserve: training the deployment model...");
    let model = StoneBuilder::from_config(StoneConfig {
        trainer: stone_repro::core::TrainerConfig {
            epochs: 2,
            triplets_per_epoch: 64,
            batch_size: 32,
            ..stone_repro::core::TrainerConfig::quick()
        },
        ..StoneConfig::quick()
    })
    .fit(&suite.train, 7);
    let blob = model.save();

    let venues: Vec<String> = (0..n_venues).map(|v| format!("venue-{v:02}")).collect();
    let registry = Arc::new(ModelRegistry::new());
    for venue in &venues {
        registry.publish_bytes(venue, &blob).expect("model publishes from bytes");
    }

    let mut server = NetServer::start(registry, addr.as_str(), ServerConfig::default())
        .expect("bind NETSERVE_ADDR");
    println!(
        "netserve: serving {} venue(s) [{}] on {} ({} refs per venue, {} B blob, \
         STONE_THREADS={})",
        venues.len(),
        venues.join(", "),
        server.local_addr(),
        model.knn().len(),
        blob.len(),
        stone_repro::par::max_threads(),
    );
    println!("netserve: press Enter to drain and exit");

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    let serve_stats = server.serve_stats();
    let wire = server.shutdown();
    println!(
        "netserve: drained. wire: {} conns ({} closed), {} requests, {} responses, \
         {} shed, {} malformed; serve: {} completed, {} rejected, mean batch {:.2}",
        wire.connections_accepted,
        wire.connections_closed,
        wire.requests_decoded,
        wire.responses_written,
        wire.shed,
        wire.malformed_frames,
        serve_stats.completed,
        serve_stats.rejected,
        serve_stats.mean_batch_size(),
    );
    // Per-venue scheduler breakdown: batch fattening and sheds under the
    // venue-sharded drain.
    for v in &serve_stats.venues {
        println!(
            "netserve:   {}: {} completed, {} shed, mean batch {:.2}, p50 {}, p99 {}",
            v.venue,
            v.completed,
            v.shed,
            v.mean_batch_size(),
            fmt_latency(v.p50()),
            fmt_latency(v.p99()),
        );
    }
}
