//! The untraced benchmark binary: prints the end-to-end metrics.

fn main() -> std::process::ExitCode {
    symbreak_perfbench::main(false)
}
