//! The timed process: one workload, its end-to-end metrics (`--trace 0`)
//! or its per-layer metrics (`--trace 1`), the JSON summary last.

fn main() {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = perfbench::run(&args);
    print!("{}", out.text(&args));
    let names: &[(&str, &str)] = if args.trace {
        &perfbench::PER_LAYER
    } else {
        &perfbench::END_TO_END
    };
    println!("{}", out.summary(names));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
