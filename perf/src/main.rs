fn main() {
    std::process::exit(scioto_perf::cli::main(std::env::args().skip(1).collect()));
}
