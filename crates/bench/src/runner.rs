//! Bridges the experiment harness onto the `ap-engine` execution substrate.
//!
//! A simulation is described by a [`RunSpec`] — application, system kind,
//! problem size and RADram configuration. Specs are `Send` even though the
//! simulated `System` is not: each job constructs its machine inside the
//! worker thread. The [`Runner`] batches specs onto an [`Engine`], so sweeps
//! run in parallel, survive a panicking point, and persist results to the
//! content-addressed disk cache.
//!
//! Cache identity has two layers:
//!
//! * the **job key** ([`RunSpec::key`]) carries everything that identifies
//!   one point — app, system, exact problem size (`f64` bits) and an FNV
//!   fingerprint of the full `RadramConfig`;
//! * the **engine salt** carries everything that invalidates results
//!   wholesale — the `ap-bench` crate version and the report-codec format
//!   version.

use ap_apps::{App, ExecMode, RunReport, SystemKind};
use ap_engine::{fnv1a, Codec, Engine, Job, JobError};
use radram::{RadramConfig, SystemStats};

/// Version of the [`report_codec`] wire format. Bump whenever the encoded
/// field set changes; old cache entries then fail to decode (their salt
/// differs) instead of being misread.
pub const REPORT_FORMAT: u32 = 3;

/// The engine cache salt shared by every harness front-end: the `ap-bench`
/// crate version plus the report-codec format version. The `apd` daemon
/// salts its cache with this same value, so a point computed by a local
/// `experiments` run and one computed by the daemon share one cache entry —
/// and serve each other byte-identical results.
pub fn harness_salt() -> String {
    format!("ap-bench-{}/report-v{REPORT_FORMAT}", env!("CARGO_PKG_VERSION"))
}

/// One simulation point, as a `Send` specification.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Application kernel to run.
    pub app: App,
    /// Which memory system.
    pub kind: SystemKind,
    /// Problem size in Active Pages.
    pub pages: f64,
    /// Full machine configuration.
    pub cfg: RadramConfig,
    /// Execution tier: the cycle-accurate oracle or the counted fast tier
    /// (DESIGN.md §13).
    pub mode: ExecMode,
}

impl RunSpec {
    /// A spec for `app` on `kind` at `pages` under `cfg`, on the accurate
    /// tier.
    pub fn new(app: App, kind: SystemKind, pages: f64, cfg: RadramConfig) -> Self {
        RunSpec { app, kind, pages, cfg, mode: ExecMode::Accurate }
    }

    /// The same spec on the given execution tier.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Stable cache/manifest key: app, system, execution tier, exact size
    /// bits and a fingerprint of the configuration (any `RadramConfig` field
    /// change — cache geometry, latencies, logic clock — changes the key).
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/p{:016x}/cfg{:016x}",
            self.app.name(),
            self.kind,
            self.mode,
            self.pages.to_bits(),
            fnv1a(format!("{:?}", self.cfg).as_bytes()),
        )
    }

    /// Runs the simulation (constructing the `System` on this thread).
    pub fn execute(&self) -> RunReport {
        let report = self.app.run_mode(self.kind, self.pages, &self.cfg, self.mode);
        record_session_metrics(&report);
        report
    }
}

/// Publishes a run's aggregate counters into the active trace session (a
/// no-op on untraced threads), so exported timelines carry end-of-run
/// totals next to the event stream they decompose.
fn record_session_metrics(r: &RunReport) {
    use ap_trace::session;
    if !session::active() {
        return;
    }
    let s = &r.stats;
    let c = &s.cpu;
    session::count("cpu.instructions", c.instructions);
    session::count("cpu.loads", c.loads);
    session::count("cpu.stores", c.stores);
    session::count("cpu.branches", c.branches);
    session::count("cpu.mispredicts", c.mispredicts);
    session::count("mem.l1d_misses", c.mem.l1d.misses);
    session::count("mem.l2_misses", c.mem.l2.misses);
    session::count("mem.dram_fills", c.mem.dram_fills);
    session::count("radram.activations", s.activations);
    session::count("radram.logic_busy_cycles", s.logic_busy_cycles);
    session::count("radram.non_overlap_cycles", s.non_overlap_cycles);
    session::count("kernel.cycles", r.kernel_cycles);
    session::count("dispatch.cycles", r.dispatch_cycles);
}

/// The engine [`Runner::from_env`] runs on: the one place the harness
/// reads its engine settings. Command-line overrides apply on top.
pub(crate) fn env_engine() -> Engine {
    let mut engine = Engine::from_env();
    if engine.cache_dir().is_none() {
        engine = engine.with_cache_dir(crate::results_dir().join(".ap-cache"));
    }
    if crate::env_flag("AP_NO_CACHE") {
        engine = engine.without_cache();
    }
    engine
}

/// Executes batches of [`RunSpec`]s on an [`Engine`].
#[derive(Debug, Clone)]
pub struct Runner {
    engine: Engine,
}

impl Runner {
    /// A runner configured from the environment (`AP_JOBS`, `AP_CACHE_DIR`,
    /// `AP_JOB_TIMEOUT_SECS`), with the disk cache defaulting to
    /// `<results dir>/.ap-cache` unless `AP_NO_CACHE` is set.
    pub fn from_env() -> Runner {
        Runner::with_engine(env_engine())
    }

    /// A runner over an explicitly configured engine. The engine's salt is
    /// replaced with [`harness_salt`], which keeps cache entries from one
    /// `ap-bench` version invisible to another.
    pub fn with_engine(engine: Engine) -> Runner {
        Runner { engine: engine.with_salt(harness_salt()) }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs every spec (parallel, cached, fault-isolated) and returns one
    /// result per spec in submission order.
    pub fn run(&self, specs: Vec<RunSpec>) -> Vec<Result<RunReport, JobError>> {
        self.run_outcomes(specs).into_iter().map(|o| o.result).collect()
    }

    /// Like [`Runner::run`] but returns the full engine outcomes — result
    /// plus per-job wall time and whether the disk cache served it. Sweep
    /// reports use the cache-hit flags to publish their hit ratio.
    pub fn run_outcomes(&self, specs: Vec<RunSpec>) -> Vec<ap_engine::JobOutcome<RunReport>> {
        let jobs =
            specs.into_iter().map(|spec| Job::new(spec.key(), move || spec.execute())).collect();
        self.engine.run(jobs, Some(report_codec()))
    }
}

/// The cache codec for [`RunReport`]: a line-based `key=value` format that
/// round-trips every counter exactly (`u64`s in decimal, `f64`s as raw bits).
/// The diag hook records the report's application's static-analysis totals
/// (see [`crate::lint_corpus`]) in the run manifest.
pub fn report_codec() -> Codec<RunReport> {
    Codec { encode: encode_report, decode: decode_report, diag: Some(report_diag) }
}

/// Diagnostic totals for a report: the lint findings of the circuit and
/// kernel implementing its application, plus any dynamic race findings the
/// access sanitizer recorded during the run itself. Static counts are
/// computed fresh on every job (cache hits included), so lint-pass changes
/// surface without invalidating the simulation cache; the dynamic counts
/// ride in the cached report's stats.
fn report_diag(r: &RunReport) -> ap_engine::manifest::DiagCounts {
    let mut counts = crate::lint_corpus::counts_for_app(r.app);
    counts.errors += r.stats.race_errors as u32;
    counts.warnings += r.stats.race_warnings as u32;
    counts
}

fn encode_report(r: &RunReport) -> String {
    let s = &r.stats;
    let c = &s.cpu;
    let m = &c.mem;
    let mut out = String::with_capacity(1024);
    let mut put = |k: &str, v: u64| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v.to_string());
        out.push('\n');
    };
    put("format", REPORT_FORMAT as u64);
    // `app` and `system` are written below as strings; everything numeric
    // goes through `put` so the format stays trivially greppable.
    put("pages_bits", r.pages.to_bits());
    put("kernel_cycles", r.kernel_cycles);
    put("total_cycles", r.total_cycles);
    put("dispatch_cycles", r.dispatch_cycles);
    put("checksum", r.checksum);
    put("non_overlap_cycles", s.non_overlap_cycles);
    put("activations", s.activations);
    put("interrupt_batches", s.interrupt_batches);
    put("interpage_copies", s.interpage_copies);
    put("copied_bytes", s.copied_bytes);
    put("rebinds", s.rebinds);
    put("logic_busy_cycles", s.logic_busy_cycles);
    put("race_errors", s.race_errors);
    put("race_warnings", s.race_warnings);
    put("cpu.cycles", c.cycles);
    put("cpu.instructions", c.instructions);
    put("cpu.loads", c.loads);
    put("cpu.stores", c.stores);
    put("cpu.branches", c.branches);
    put("cpu.mispredicts", c.mispredicts);
    put("cpu.flops", c.flops);
    put("cpu.mmx_ops", c.mmx_ops);
    put("mem.dram_fills", m.dram_fills);
    put("mem.dram_writebacks", m.dram_writebacks);
    put("mem.uncached", m.uncached);
    put("mem.stall_cycles", m.stall_cycles);
    for (tag, cs) in [("l1i", &m.l1i), ("l1d", &m.l1d), ("l2", &m.l2)] {
        put(&format!("{tag}.hits"), cs.hits);
        put(&format!("{tag}.misses"), cs.misses);
        put(&format!("{tag}.writes"), cs.writes);
        put(&format!("{tag}.writebacks"), cs.writebacks);
        put(&format!("{tag}.invalidated"), cs.invalidated);
    }
    out.push_str(&format!("app={}\nsystem={}\nmode={}\n", r.app, r.system, r.mode));
    out
}

fn decode_report(text: &str) -> Option<RunReport> {
    let mut fields = std::collections::HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=')?;
        fields.insert(k, v);
    }
    let num = |k: &str| -> Option<u64> { fields.get(k)?.parse().ok() };
    if num("format")? != REPORT_FORMAT as u64 {
        return None;
    }
    let app = App::by_name(fields.get("app")?)?;
    let system = match *fields.get("system")? {
        "conventional" => SystemKind::Conventional,
        "radram" => SystemKind::Radram,
        _ => return None,
    };
    let mode = ExecMode::parse(fields.get("mode")?).ok()?;

    let mut stats = SystemStats {
        non_overlap_cycles: num("non_overlap_cycles")?,
        activations: num("activations")?,
        interrupt_batches: num("interrupt_batches")?,
        interpage_copies: num("interpage_copies")?,
        copied_bytes: num("copied_bytes")?,
        rebinds: num("rebinds")?,
        logic_busy_cycles: num("logic_busy_cycles")?,
        race_errors: num("race_errors")?,
        race_warnings: num("race_warnings")?,
        ..Default::default()
    };
    let c = &mut stats.cpu;
    c.cycles = num("cpu.cycles")?;
    c.instructions = num("cpu.instructions")?;
    c.loads = num("cpu.loads")?;
    c.stores = num("cpu.stores")?;
    c.branches = num("cpu.branches")?;
    c.mispredicts = num("cpu.mispredicts")?;
    c.flops = num("cpu.flops")?;
    c.mmx_ops = num("cpu.mmx_ops")?;
    let m = &mut c.mem;
    m.dram_fills = num("mem.dram_fills")?;
    m.dram_writebacks = num("mem.dram_writebacks")?;
    m.uncached = num("mem.uncached")?;
    m.stall_cycles = num("mem.stall_cycles")?;
    for (tag, cs) in [("l1i", &mut m.l1i), ("l1d", &mut m.l1d), ("l2", &mut m.l2)] {
        cs.hits = num(&format!("{tag}.hits"))?;
        cs.misses = num(&format!("{tag}.misses"))?;
        cs.writes = num(&format!("{tag}.writes"))?;
        cs.writebacks = num(&format!("{tag}.writebacks"))?;
        cs.invalidated = num(&format!("{tag}.invalidated"))?;
    }

    Some(RunReport {
        app: app.name(),
        system,
        mode,
        pages: f64::from_bits(num("pages_bits")?),
        kernel_cycles: num("kernel_cycles")?,
        total_cycles: num("total_cycles")?,
        dispatch_cycles: num("dispatch_cycles")?,
        checksum: num("checksum")?,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_codec_roundtrips_exactly() {
        let cfg = RadramConfig::reference();
        let report = RunSpec::new(App::Database, SystemKind::Radram, 0.5, cfg).execute();
        let decoded = decode_report(&encode_report(&report)).expect("decode");
        assert_eq!(report, decoded);
    }

    #[test]
    fn decode_rejects_garbage_and_wrong_versions() {
        assert!(decode_report("").is_none());
        assert!(decode_report("not a report").is_none());
        let cfg = RadramConfig::reference();
        let good = encode_report(
            &RunSpec::new(App::Median, SystemKind::Conventional, 0.25, cfg).execute(),
        );
        assert!(decode_report(&good.replacen("format=3", "format=999", 1)).is_none());
        assert!(decode_report(&good.replace("app=median", "app=unknown-app")).is_none());
        assert!(decode_report(&good.replace("mode=accurate", "mode=warp")).is_none());
    }

    #[test]
    fn codec_roundtrips_the_fast_tier() {
        let cfg = RadramConfig::reference();
        let report = RunSpec::new(App::Database, SystemKind::Radram, 0.5, cfg)
            .with_mode(ExecMode::Fast)
            .execute();
        assert_eq!(report.mode, ExecMode::Fast);
        let decoded = decode_report(&encode_report(&report)).expect("decode");
        assert_eq!(report, decoded);
    }

    #[test]
    fn keys_distinguish_every_spec_dimension() {
        let cfg = RadramConfig::reference();
        let base = RunSpec::new(App::Database, SystemKind::Radram, 1.0, cfg.clone());
        let other_app = RunSpec::new(App::Median, SystemKind::Radram, 1.0, cfg.clone());
        let other_kind = RunSpec::new(App::Database, SystemKind::Conventional, 1.0, cfg.clone());
        let other_size = RunSpec::new(App::Database, SystemKind::Radram, 2.0, cfg.clone());
        let other_mode = base.clone().with_mode(ExecMode::Fast);
        let other_cfg =
            RunSpec::new(App::Database, SystemKind::Radram, 1.0, cfg.with_miss_latency(100));
        let keys =
            [&base, &other_app, &other_kind, &other_size, &other_mode, &other_cfg].map(|s| s.key());
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn runner_matches_direct_execution() {
        let cfg = RadramConfig::reference();
        let specs = vec![
            RunSpec::new(App::Database, SystemKind::Conventional, 0.5, cfg.clone()),
            RunSpec::new(App::Database, SystemKind::Radram, 0.5, cfg.clone()),
        ];
        let direct: Vec<RunReport> = specs.iter().map(|s| s.execute()).collect();
        let runner = Runner::with_engine(Engine::new().with_workers(2).without_cache());
        let via_engine = runner.run(specs);
        for (d, e) in direct.iter().zip(&via_engine) {
            assert_eq!(d, e.as_ref().unwrap());
        }
    }
}
