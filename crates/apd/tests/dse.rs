//! Differential test: the design-space sweep through an `apd` daemon
//! against the same sweep in process, over one cache directory.

use ap_apd::{Client, DaemonConfig, Server};
use ap_apps::ExecMode;
use ap_bench::dse;
use ap_bench::runner::Runner;
use ap_dse::grid::Grid;
use ap_engine::Engine;

/// The quick grid on the fast tier runs in process first, filling a cache
/// directory; the daemon then sweeps it over the same directory. Every
/// daemon job must be a cache hit, which proves the daemon keys each run as
/// the harness does, and the two fronts must be byte-identical.
#[test]
fn daemon_dse_hits_every_in_process_key_and_matches_its_front() {
    let dir = std::env::temp_dir().join(format!("apd-test-dse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mode = ExecMode::Fast;

    let runner =
        Runner::with_engine(Engine::new().with_workers(2).with_cache_dir(dir.join("cache")));
    let local = dse::run(dse::on_runner(&runner), true, mode);
    assert_eq!(local.total_jobs, Grid::quick().run_count());
    assert_eq!(local.report.incomplete, 0);

    let mut server = Server::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: Some(2),
        cache_dir: Some(dir.join("cache")),
        manifest: Some(dir.join("manifest.jsonl")),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let daemon = dse::run(
        |configs, specs| client.run_dse_tier(configs, specs).expect("daemon tier completes"),
        true,
        mode,
    );
    server.stop();

    assert_eq!(daemon.total_jobs, local.total_jobs);
    assert_eq!(daemon.cache_hits, daemon.total_jobs, "a daemon job missed the harness cache");
    assert_eq!(daemon.report.front_json(), local.report.front_json());
    let _ = std::fs::remove_dir_all(&dir);
}
