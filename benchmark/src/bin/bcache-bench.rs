//! The `bcache-bench` command: see the crate documentation.

fn main() {
    std::process::exit(bcache_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
