//! Shared infrastructure for the experiment harness: table rendering,
//! the paper's published reference numbers, and helpers for building
//! synthetic compaction inputs.

pub mod inputs;
pub mod paper;
pub mod table;

pub use inputs::{build_kernel_inputs, KernelInputSpec, MemFactory};
pub use table::TablePrinter;

/// Standard experiment header, so every bench's output is self-labelling.
pub fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

/// Compact float formatting for table cells.
pub fn fmt(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}
