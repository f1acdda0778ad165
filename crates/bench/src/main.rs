//! `scioto <subcommand> [flags]` — see `scioto_bench` for the table.

fn main() -> std::process::ExitCode {
    scioto_bench::main()
}
