//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's readable report, then the JSON summary as the last
//! line of standard output. Exits 1 when a correctness check fails and
//! 2 on a usage error.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let report = perfbench::run(&args);
    print!("{}", report.render_text());
    if !report.correct() {
        eprintln!("perfbench: a correctness check failed");
        std::process::exit(1);
    }
    println!("{}", report.render_json());
}
