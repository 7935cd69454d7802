//! The traced benchmark binary: counts allocations, records spans, runs
//! the per-layer probes and prints the per-layer metrics.

use symbreak_perfbench::trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    symbreak_perfbench::main(true)
}
