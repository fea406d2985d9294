//! Regenerates the paper figure; pass --quick for a shortened run.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print!("{}", ic_bench::experiments::figures::fig8(quick, None));
}
