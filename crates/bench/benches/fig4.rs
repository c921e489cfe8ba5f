//! Regenerates Figure 4 (percent cycles stalled on RADram computation).
fn main() {
    let runner = ap_bench::runner::Runner::from_env();
    let data = ap_bench::experiments::fig3_fig4(
        &runner,
        ap_bench::quick_mode(),
        ap_bench::ExecMode::Accurate,
    );
    println!("Figure 4: percent cycles the processor is stalled (non-overlap)");
    println!("{:<15} pages:non-overlap%", "app");
    for (app, points) in &data {
        print!("{:<15}", app.name());
        for p in points {
            print!(" {:>6.2}:{:>5.1}%", p.pages, p.non_overlap_percent());
        }
        println!();
    }
}
