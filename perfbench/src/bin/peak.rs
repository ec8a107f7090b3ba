//! The peak-heap process: one untimed pass of a workload under the
//! counting allocator, its `peak_mib` as the JSON summary.

#[global_allocator]
static ALLOC: infine_bench::alloc::CountingAlloc = infine_bench::alloc::CountingAlloc;

fn main() {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-peak: {e}");
            std::process::exit(2);
        }
    };
    let out = perfbench::run_peak(&args);
    print!("{}", out.text(&args));
    println!("{}", out.summary(&perfbench::PEAK));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
