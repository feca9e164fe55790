//! Untraced benchmark binary (system allocator, no counting).

fn main() -> std::process::ExitCode {
    select_perfbench::main_with(None)
}
