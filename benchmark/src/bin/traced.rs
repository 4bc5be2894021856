//! `panic-benchmark-traced`: the same program with a counting global
//! allocator, used for `--trace 1` runs so `core.allocs_per_frame` can
//! be read without touching the allocator the untraced numbers use.

#[global_allocator]
static ALLOCATOR: panic_benchmark::alloc::CountingAlloc = panic_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    panic_benchmark::cli::main()
}
