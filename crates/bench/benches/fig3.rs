//! Regenerates Figure 3 (RADram speedup as problem size varies).
fn main() {
    let runner = ap_bench::runner::Runner::from_env();
    let data = ap_bench::experiments::fig3_fig4(
        &runner,
        ap_bench::quick_mode(),
        ap_bench::ExecMode::Accurate,
    );
    println!("Figure 3: RADram speedup as problem size varies");
    for (app, points) in &data {
        ap_bench::render::print_sweep(*app, points);
    }
    if let Some(path) =
        ap_bench::write_result_file("fig3_fig4.csv", &ap_bench::render::sweep_csv(&data))
    {
        println!("wrote {}", path.display());
    }
}
