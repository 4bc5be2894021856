//! `panic-benchmark`: the untraced binary, on the system allocator
//! users run. See `panic_benchmark::cli` for the command line.

fn main() -> std::process::ExitCode {
    panic_benchmark::cli::main()
}
