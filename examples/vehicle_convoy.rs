//! Vehicle convoy: the vehicular variant (KITTI-like streets).
//!
//! Three vehicles cover consecutive segments of one street circuit; the
//! server stitches their maps into a single global street map (Fig. 10c)
//! while each consumes ~1–2 Mbit/s of uplink thanks to video transfer
//! (Table 3).
//!
//! ```bash
//! cargo run --release --example vehicle_convoy
//! ```

use bench::experiments::{fig10, table3, Effort};

fn main() {
    println!("Fig. 10c — KITTI-05 split across three vehicles:\n");
    let result = fig10::run_kitti(Effort::Quick);
    println!("{}", result.render_text());

    println!("\nTable 3 — why the uplink stays small (video vs images):\n");
    let t3 = table3::run(Effort::Quick);
    println!("{}", t3.render_text());
}
