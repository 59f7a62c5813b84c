//! Network study: how both systems behave under degraded links.
//!
//! Replays the two-client merge scenario under added delay and bandwidth
//! caps (the paper's tc-shaped testbed, §5.7) and prints cumulative and
//! short-term ATE for user B, plus the Table 4 merge-latency breakdown
//! that explains the difference.
//!
//! ```bash
//! cargo run --release --example network_study
//! ```

use bench::experiments::{fig12, table4, Effort};

fn main() {
    println!("Table 4 — merge latency breakdown (SLAM-Share vs baseline):\n");
    let t4 = table4::run(Effort::Quick);
    println!("{}", t4.render_text());

    println!("\nFig. 12 — accuracy under delay/bandwidth shaping:\n");
    let f12 = fig12::run(Effort::Quick);
    println!("{}", f12.render_text());
}
