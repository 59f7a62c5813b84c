//! Multi-user AR: the headline SLAM-Share scenario.
//!
//! Three drones explore the same machine hall. Client A maps first; B and
//! C join later with their own private origins. The edge server merges
//! every map into the shared global map (<200 ms per merge) and all
//! clients keep localizing in it. Finishes with the shared-hologram check:
//! where each user perceives a hologram placed by another.
//!
//! ```bash
//! cargo run --release --example multi_user_ar
//! ```

use bench::experiments::{fig10, fig11, Effort};

fn main() {
    println!("running the 3-client EuRoC merge session (this renders and tracks\nevery frame — expect a minute or two)…\n");
    let result = fig10::run_euroc(Effort::Quick);
    println!("{}", result.render_text());
    if let Some((before, after)) = result.before_after(2) {
        println!("client 2 merge: map ATE {before:.3} m -> {after:.3} m\n");
    }

    println!("hologram positioning (Fig. 11 scenario)…\n");
    let holo = fig11::run(Effort::Quick);
    println!("{}", holo.render_text());
}
