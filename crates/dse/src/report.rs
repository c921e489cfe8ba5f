//! Report model for design-space sweeps: the schema-versioned
//! `BENCH_dse.json` payload, the deterministic `BENCH_dse_front.json`
//! companion, and a human-readable front table.
//!
//! Two files on purpose: the full report carries wall-clock and cache-hit
//! telemetry that legitimately varies run to run, while the front file holds
//! only the grid's analytical outcome — CI reruns a sweep and byte-compares
//! the front file to prove the pipeline deterministic.

use crate::grid::DseConfig;

/// Version of the `BENCH_dse.json` / `BENCH_dse_front.json` schema.
pub const DSE_SCHEMA: u32 = 1;

/// One Pareto-optimal design point, as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontRow {
    /// Canonical config index in the grid expansion.
    pub config_id: usize,
    /// The design-space cell.
    pub config: DseConfig,
    /// RADram speedup over conventional (maximized).
    pub speedup: f64,
    /// Logic bandwidth budget in LE·MHz (minimized).
    pub le_mhz: f64,
    /// Processor cache area in bytes (minimized).
    pub area_bytes: u64,
    /// Execution tier the reported numbers come from
    /// (`"fast"` or `"accurate"`).
    pub tier: &'static str,
}

impl FrontRow {
    fn json(&self, indent: &str) -> String {
        let c = &self.config;
        format!(
            "{indent}{{\"config_id\": {}, \"app\": \"{}\", \"pages\": {}, \
             \"l1d_size\": {}, \"l1d_assoc\": {}, \"l1d_block\": {}, \
             \"logic_divisor\": {}, \"speedup\": {:.4}, \"le_mhz\": {:.1}, \
             \"area_bytes\": {}, \"tier\": \"{}\"}}",
            self.config_id,
            c.app.name(),
            c.pages,
            c.l1d_size,
            c.l1d_assoc,
            c.l1d_block,
            c.logic_divisor,
            self.speedup,
            self.le_mhz,
            self.area_bytes,
            self.tier,
        )
    }
}

/// Analytical outcome of one design-space sweep.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Whether the quick (CI) grid was swept.
    pub quick: bool,
    /// Execution tier swept: `"fast"` or `"accurate"`.
    pub mode: &'static str,
    /// One-line grid description (see [`crate::grid::Grid::describe`]).
    pub grid: String,
    /// Design points in the grid.
    pub config_count: usize,
    /// Simulation runs submitted.
    pub run_count: usize,
    /// Design points with both system runs complete.
    pub points: usize,
    /// Design points dropped by failed or missing runs.
    pub incomplete: usize,
    /// Complete points dominated off the front.
    pub dominated: usize,
    /// The Pareto front, by ascending config id.
    pub front: Vec<FrontRow>,
}

impl DseReport {
    /// The deterministic `BENCH_dse_front.json` payload: schema plus the
    /// analytical outcome only — no wall-clock, no cache telemetry. Two
    /// sweeps of the same grid must produce byte-identical front files.
    pub fn front_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {DSE_SCHEMA},\n"));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"config_count\": {},\n", self.config_count));
        out.push_str(&format!("  \"dominated\": {},\n", self.dominated));
        out.push_str("  \"front\": [\n");
        let rows: Vec<String> = self.front.iter().map(|r| r.json("    ")).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The full `BENCH_dse.json` payload: the front plus sweep telemetry —
    /// wall-clock and engine cache-hit ratio.
    pub fn render_json(&self, wall_secs: f64, cache_hits: usize, total_jobs: usize) -> String {
        let ratio = if total_jobs == 0 { 0.0 } else { cache_hits as f64 / total_jobs as f64 };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {DSE_SCHEMA},\n"));
        out.push_str("  \"bench\": \"dse\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        out.push_str(&format!("  \"grid\": \"{}\",\n", self.grid));
        out.push_str(&format!("  \"config_count\": {},\n", self.config_count));
        out.push_str(&format!("  \"run_count\": {},\n", self.run_count));
        out.push_str(&format!("  \"points\": {},\n", self.points));
        out.push_str(&format!("  \"incomplete\": {},\n", self.incomplete));
        out.push_str(&format!("  \"dominated\": {},\n", self.dominated));
        out.push_str(&format!("  \"sweep_wall_secs\": {wall_secs:.3},\n"));
        out.push_str(&format!("  \"cache_hits\": {cache_hits},\n"));
        out.push_str(&format!("  \"total_jobs\": {total_jobs},\n"));
        out.push_str(&format!("  \"cache_hit_ratio\": {ratio:.4},\n"));
        out.push_str("  \"front\": [\n");
        let rows: Vec<String> = self.front.iter().map(|r| r.json("    ")).collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Human-readable front table, one row per Pareto-optimal point.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>9} {:>10} {:>10}  tier\n",
            "config", "speedup", "LE-MHz", "area-KB"
        ));
        for row in &self.front {
            out.push_str(&format!(
                "{:<42} {:>9.2} {:>10.1} {:>10} {:>5}\n",
                row.config.label(),
                row.speedup,
                row.le_mhz,
                row.area_bytes >> 10,
                row.tier,
            ));
        }
        out.push_str(&format!(
            "front {} / {} points ({} dominated)\n",
            self.front.len(),
            self.points,
            self.dominated,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_apps::App;

    fn report() -> DseReport {
        let config = DseConfig {
            app: App::Database,
            pages: 2.0,
            l1d_size: 64 << 10,
            l1d_assoc: 2,
            l1d_block: 32,
            logic_divisor: 10,
        };
        DseReport {
            quick: true,
            mode: "accurate",
            grid: "tiny".into(),
            config_count: 4,
            run_count: 8,
            points: 4,
            incomplete: 0,
            dominated: 3,
            front: vec![FrontRow {
                config_id: 1,
                speedup: 7.5,
                le_mhz: config.le_mhz(),
                area_bytes: config.area_bytes(),
                config,
                tier: "accurate",
            }],
        }
    }

    #[test]
    fn front_json_is_versioned_and_deterministic() {
        let r = report();
        let json = r.front_json();
        assert!(json.starts_with("{\n  \"schema\": 1,\n"), "{json}");
        assert!(json.contains("\"app\": \"database\""));
        assert!(json.contains("\"speedup\": 7.5000"));
        assert_eq!(json, r.front_json(), "same report, same bytes");
        assert!(!json.contains("wall"), "front file must not carry telemetry");
    }

    #[test]
    fn full_json_carries_sweep_telemetry() {
        let json = report().render_json(12.5, 90, 100);
        for needle in [
            "\"schema\": 1",
            "\"bench\": \"dse\"",
            "\"sweep_wall_secs\": 12.500",
            "\"cache_hit_ratio\": 0.9000",
            "\"points\": 4",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn table_lists_the_front() {
        let t = report().table();
        assert!(t.contains("database"), "{t}");
        assert!(t.contains("front 1 / 4 points"), "{t}");
    }
}
