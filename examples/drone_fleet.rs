//! Drone fleet: the paper's running example (§4.1).
//!
//! Drones stream video to the edge; the server tracks each one on its GPU
//! slice, merges their maps, and returns poses within the frame budget.
//! Reports per-stage tracking latency on CPU vs simulated GPU (Fig. 5 /
//! Fig. 8) — the case for offloading.
//!
//! ```bash
//! cargo run --release --example drone_fleet
//! ```

use bench::experiments::{fig5, fig8, Effort};

fn main() {
    println!("Fig. 5 — why tracking needs help (CPU breakdown):\n");
    let f5 = fig5::run(Effort::Quick);
    println!("{}", f5.render_text());

    println!("\nFig. 8 — what the GPU buys (CPU vs simulated V100):\n");
    let f8 = fig8::run(Effort::Quick);
    println!("{}", f8.render_text());
}
