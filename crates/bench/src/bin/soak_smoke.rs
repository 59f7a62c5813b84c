//! Day-long-session soak for the CI gate: the compressed virtual-day
//! scenario from `slamshare_core::lifecycle::soak` — churning clients
//! migrating across work areas, lifecycle maintenance ticking on the
//! merge cadence, and a revisit tail that relocalizes against regions
//! evicted hours (of virtual time) earlier. Asserts the two soak
//! contracts from DESIGN.md §11:
//!
//! 1. **bounded footprint** — the map's measured peak size with eviction
//!    on (`map_bytes_high_water`) stays under a fixed budget *and*
//!    strictly below the never-evict control run's peak;
//! 2. **content transparency** — every trajectory read back from the map
//!    and the final map digest are bit-identical to the never-evict run
//!    (reload-on-demand is invisible to clients).
//!
//! Usage: `soak_smoke [day|smoke]`; honors `SLAMSHARE_TEST_SEED`.

use slamshare_core::gmap::ShardedGlobalMap;
use slamshare_core::lifecycle::soak::{self, SoakConfig};

/// Map-size budget for the day preset. The evicting day peaks ~2.2 MiB;
/// the never-evict control ~5.6 MiB — so the bound trips if eviction
/// ever stops keeping the working set bounded, with ~1.8 MiB of slack
/// for content growth.
const DAY_MAP_BUDGET_BYTES: u64 = 4 << 20;

fn main() {
    let preset = std::env::args().nth(1).unwrap_or_else(|| "day".into());
    let seed: u64 = std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let cfg = match preset.as_str() {
        "smoke" => SoakConfig::smoke(seed),
        _ => SoakConfig::day(seed),
    };

    // Both arms check the map's invariants after every step of the day.
    let mut steps = 0u64;
    let mut check = |gmap: &ShardedGlobalMap| {
        steps += 1;
        let checked = gmap.check_invariants();
        assert!(checked.is_ok(), "after step {steps}: {checked:?}");
    };
    let evicting = soak::run_observed(&cfg, &mut check);
    let lc = &evicting.lifecycle;
    assert!(lc.ticks > 0, "maintenance never ticked");
    assert!(lc.pruned_points > 0, "prune never fired: {lc:?}");
    assert!(lc.evicted_regions > 0, "no region ever went cold: {lc:?}");
    assert!(lc.reloads > 0, "re-entry never forced a reload: {lc:?}");
    assert!(evicting.relocs > 0, "revisit tail never relocalized");
    assert!(
        evicting.relocs_after_reload > 0,
        "no relocalization ever hit a previously evicted region"
    );
    if preset != "smoke" {
        assert!(
            lc.map_bytes_high_water < DAY_MAP_BUDGET_BYTES,
            "map-bytes high-water {} exceeds the day-session budget {}",
            lc.map_bytes_high_water,
            DAY_MAP_BUDGET_BYTES
        );
    }

    // Never-evict control arm: same day, maintenance without eviction.
    let mut control = cfg.clone();
    control.lifecycle = cfg.lifecycle.without_eviction();
    let never = soak::run_observed(&control, &mut check);
    assert_eq!(never.lifecycle.evicted_regions, 0);
    assert_eq!(
        evicting.trajectories, never.trajectories,
        "evict/reload changed a trajectory a client read back"
    );
    assert_eq!(
        evicting.map_digest, never.map_digest,
        "evict/reload changed final map content"
    );
    assert!(
        lc.map_bytes_high_water < never.lifecycle.map_bytes_high_water,
        "eviction did not lower the map-bytes peak: {} vs {}",
        lc.map_bytes_high_water,
        never.lifecycle.map_bytes_high_water
    );

    println!(
        "soak ok ({preset}, seed {seed}): high-water {:.1} MiB vs {:.1} MiB never-evict | \
         pruned {} evicted {} regions/{} comps reloads {} | relocs {} ({} after reload) | \
         digest {:#018x} bit-identical | map invariants held over {steps} steps",
        lc.map_bytes_high_water as f64 / (1 << 20) as f64,
        never.lifecycle.map_bytes_high_water as f64 / (1 << 20) as f64,
        lc.pruned_points,
        lc.evicted_regions,
        lc.evicted_components,
        lc.reloads,
        evicting.relocs,
        evicting.relocs_after_reload,
        evicting.map_digest,
    );
}
