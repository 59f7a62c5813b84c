//! GSlice-style spatio-temporal GPU sharing.
//!
//! §4.2.1: "SLAM-Share utilizes spatio-temporal sharing of the GPU [19] to
//! extract features simultaneously and search local points on the data
//! received from multiple client updates." GSlice carves a GPU into
//! *spatial* slices (disjoint SM subsets) so concurrent kernels from
//! different tenants don't serialize, re-partitioning as tenants come and
//! go.
//!
//! [`SharedGpu`] reproduces that behaviour: each registered client gets
//! an executor whose worker count is its SM slice; registering and
//! deregistering clients re-balances slices. Concurrent submission from
//! multiple threads is safe — slices execute independently.

use crate::exec::GpuExecutor;
use crate::model::GpuModel;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Scheduling class of a client's slice in the slice layout.
///
/// Admitted-and-tracking clients ([`SlicePriority::Interactive`]) outrank
/// clients that are relocalizing or repeatedly lost
/// ([`SlicePriority::Degraded`]): a degraded client's work no longer
/// feeds a live AR overlay, so burning an equal SM share on it inflates
/// every interactive client's latency. Weights are proportional-share —
/// a degraded client still makes progress (≥ 1 SM), it just stops
/// competing at par.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SlicePriority {
    /// Tracking normally: full proportional share.
    #[default]
    Interactive,
    /// Relocalizing / persistently lost: quarter share.
    Degraded,
}

impl SlicePriority {
    /// Proportional-share weight in the slice layout.
    pub fn weight(self) -> usize {
        match self {
            SlicePriority::Interactive => 4,
            SlicePriority::Degraded => 1,
        }
    }
}

/// One registered client's slice: its modeled SM count, its priority
/// class, plus the executor built for exactly that count.
#[derive(Debug)]
struct SliceEntry {
    sms: usize,
    prio: SlicePriority,
    exec: Arc<GpuExecutor>,
}

/// A GPU spatially shared between clients.
#[derive(Debug)]
pub struct SharedGpu {
    model: GpuModel,
    slices: RwLock<BTreeMap<u32, SliceEntry>>,
}

impl SharedGpu {
    pub fn new(model: GpuModel) -> SharedGpu {
        SharedGpu {
            model,
            slices: RwLock::new(BTreeMap::new()),
        }
    }

    /// The modeled device the slices are cut from: what a caller charges
    /// a client's kernel stats on, with that client's [`SharedGpu::slice_sms`].
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.slices.read().len()
    }

    /// Register a client and rebalance SM slices across all registered
    /// clients. The new entry's executor is allocated exactly once, with
    /// the slice the post-registration layout assigns it — no placeholder
    /// executor is ever constructed. Each client receives at least one
    /// SM; re-registering a live client returns its current executor.
    pub fn register(&self, client_id: u32) -> Arc<GpuExecutor> {
        let mut slices = self.slices.write();
        if let Some(entry) = slices.get(&client_id) {
            return entry.exec.clone();
        }
        let prio = SlicePriority::default();
        // Compute the slice this entry gets under the post-insert layout
        // (entries in id order; remainder SMs go to the first entries).
        let idx = slices.range(..client_id).count();
        let mut weights: Vec<usize> = Vec::with_capacity(slices.len() + 1);
        weights.extend(slices.range(..client_id).map(|(_, e)| e.prio.weight()));
        weights.push(prio.weight());
        weights.extend(slices.range(client_id..).map(|(_, e)| e.prio.weight()));
        let sms = weighted_layout(&self.model, &weights)
            .get(idx)
            .copied()
            .unwrap_or(1);
        let exec = Arc::new(self.sliced_executor(sms));
        slices.insert(
            client_id,
            SliceEntry {
                sms,
                prio,
                exec: exec.clone(),
            },
        );
        self.rebalance(&mut slices);
        exec
    }

    /// Set a client's priority class, rebalancing the slice layout if it
    /// changed. Returns whether anything changed (an unregistered client,
    /// or a no-op transition, returns `false`), so callers can fire
    /// transitions only on edges.
    pub fn set_priority(&self, client_id: u32, prio: SlicePriority) -> bool {
        let mut slices = self.slices.write();
        let changed = match slices.get_mut(&client_id) {
            Some(entry) if entry.prio != prio => {
                entry.prio = prio;
                true
            }
            _ => false,
        };
        if changed {
            slamshare_obs::counter_inc!("gpu.priority_transition");
            self.rebalance(&mut slices);
        }
        changed
    }

    /// A client's priority class (`None` if it is not registered).
    pub fn priority(&self, client_id: u32) -> Option<SlicePriority> {
        self.slices.read().get(&client_id).map(|e| e.prio)
    }

    /// Deregister a client, returning its SMs to the pool.
    pub fn deregister(&self, client_id: u32) {
        let mut slices = self.slices.write();
        slices.remove(&client_id);
        self.rebalance(&mut slices);
    }

    /// The executor currently assigned to a client (slices change when
    /// clients join/leave, so callers should re-fetch per frame). The
    /// time spent waiting for the slice table (a rebalance in progress
    /// holds it) is observed as `gpu.slice_wait`.
    pub fn executor(&self, client_id: u32) -> Option<Arc<GpuExecutor>> {
        let t0 = Instant::now();
        let slices = self.slices.read();
        slamshare_obs::observe_ms!("gpu.slice_wait", t0.elapsed().as_secs_f64() * 1e3);
        slices.get(&client_id).map(|e| e.exec.clone())
    }

    /// Per-client effective worker count (host-clamped SMs) — for
    /// resource-utilization reporting.
    pub fn allocation(&self) -> BTreeMap<u32, usize> {
        self.slices
            .read()
            .iter()
            .map(|(&id, entry)| (id, entry.exec.workers()))
            .collect()
    }

    /// Modeled SM count of every registered client. Unlike
    /// [`SharedGpu::allocation`] these are *not* clamped to host
    /// parallelism, so they always account the whole device: when the
    /// client count is within the SM budget the values sum exactly to
    /// `sm_count`, and an oversubscribed device degrades to one SM per
    /// client.
    pub fn slice_sms(&self) -> BTreeMap<u32, usize> {
        self.slices
            .read()
            .iter()
            .map(|(&id, entry)| (id, entry.sms))
            .collect()
    }

    fn sliced_executor(&self, sms: usize) -> GpuExecutor {
        GpuExecutor::for_model(&GpuModel {
            sm_count: sms,
            ..self.model.clone()
        })
    }

    /// Bring every entry to the current layout, recreating only the
    /// executors whose SM count actually changed.
    fn rebalance(&self, slices: &mut BTreeMap<u32, SliceEntry>) {
        let weights: Vec<usize> = slices.values().map(|e| e.prio.weight()).collect();
        let layout = weighted_layout(&self.model, &weights);
        for (entry, &sms) in slices.values_mut().zip(layout.iter()) {
            if entry.sms != sms {
                entry.sms = sms;
                entry.exec = Arc::new(self.sliced_executor(sms));
            }
        }
    }
}

/// SM slices for `weights.len()` clients (in id order) sharing the
/// device: every client is first reserved one SM, then the remaining SMs
/// are split proportionally to the priority weights by largest remainder
/// (ties go to earlier entries), so slices always sum to the full budget.
/// With equal weights this is exactly an equal split with the remainder
/// going one-each to the first entries. An oversubscribed device (more
/// clients than SMs) degrades to one SM per client.
fn weighted_layout(model: &GpuModel, weights: &[usize]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 || model.sm_count <= n {
        return vec![1; n];
    }
    let total_weight: usize = weights.iter().sum::<usize>().max(1);
    let extra = model.sm_count - n;
    let mut layout = Vec::with_capacity(n);
    // (remainder, index) of each entry's fractional share, for the
    // largest-remainder pass.
    let mut fractions = Vec::with_capacity(n);
    let mut assigned = 0;
    for (i, &w) in weights.iter().enumerate() {
        let share = extra * w;
        layout.push(1 + share / total_weight);
        assigned += share / total_weight;
        fractions.push((share % total_weight, i));
    }
    // Hand the leftover SMs to the largest fractional shares; tie-break
    // toward earlier entries (sort is stable on the descending remainder).
    fractions.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in fractions.iter().take(extra - assigned) {
        if let Some(slot) = layout.get_mut(i) {
            *slot += 1;
        }
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_gets_whole_gpu() {
        let gpu = SharedGpu::new(GpuModel::v100());
        let ex = gpu.register(1);
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(ex.workers(), GpuModel::v100().sm_count.min(host));
        assert_eq!(gpu.slice_sms()[&1], GpuModel::v100().sm_count);
        assert_eq!(gpu.model(), &GpuModel::v100());
    }

    #[test]
    fn slices_shrink_as_clients_join() {
        let gpu = SharedGpu::new(GpuModel::v100());
        gpu.register(1);
        gpu.register(2);
        let alloc = gpu.allocation();
        assert_eq!(alloc.len(), 2);
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let expect = (GpuModel::v100().sm_count / 2).min(host).max(1);
        assert_eq!(alloc[&1], expect);
        assert_eq!(alloc[&2], expect);
    }

    #[test]
    fn deregister_rebalances_up() {
        let gpu = SharedGpu::new(GpuModel::v100());
        gpu.register(1);
        gpu.register(2);
        gpu.register(3);
        let before = gpu.allocation()[&1];
        gpu.deregister(2);
        gpu.deregister(3);
        let after = gpu.allocation()[&1];
        assert!(after >= before);
        assert_eq!(gpu.client_count(), 1);
        assert!(gpu.executor(2).is_none());
    }

    #[test]
    fn every_client_keeps_at_least_one_sm() {
        let mut small = GpuModel::v100();
        small.sm_count = 2;
        let gpu = SharedGpu::new(small);
        for id in 0..5 {
            gpu.register(id);
        }
        for (_, sms) in gpu.allocation() {
            assert!(sms >= 1);
        }
    }

    #[test]
    fn register_allocates_correct_slice_once() {
        // The regression this guards: register used to insert a throwaway
        // `GpuExecutor::cpu()` placeholder before rebalance replaced it.
        // Now the returned executor must carry the correct slice directly,
        // and be the same executor the table holds.
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let sm = GpuModel::v100().sm_count;
        let gpu = SharedGpu::new(GpuModel::v100());
        let ex1 = gpu.register(1);
        assert_eq!(gpu.slice_sms()[&1], sm);
        assert_eq!(ex1.workers(), sm.min(host));
        let ex2 = gpu.register(2);
        assert_eq!(gpu.slice_sms()[&2], sm / 2);
        assert_eq!(ex2.workers(), (sm / 2).min(host));
        assert!(Arc::ptr_eq(&gpu.executor(2).unwrap(), &ex2));
    }

    #[test]
    fn slice_counts_sum_to_sm_budget_under_churn() {
        // Register/deregister churn: after every operation the modeled
        // slices must sum exactly to the SM budget (or degrade to one SM
        // each when oversubscribed), with every client keeping at least
        // one SM.
        let sm_count = GpuModel::v100().sm_count;
        let gpu = SharedGpu::new(GpuModel::v100());
        let check = |gpu: &SharedGpu| {
            let slices = gpu.slice_sms();
            if slices.is_empty() {
                return;
            }
            assert!(slices.values().all(|&s| s >= 1));
            let total: usize = slices.values().sum();
            if slices.len() <= sm_count {
                assert_eq!(total, sm_count, "slices {slices:?} leak or overrun SMs");
            } else {
                assert_eq!(total, slices.len(), "oversubscribed must be 1 SM each");
            }
        };
        for id in 0..12u32 {
            gpu.register(id);
            check(&gpu);
        }
        for id in (0..12u32).step_by(2) {
            gpu.deregister(id);
            check(&gpu);
        }
        for id in 0..12u32 {
            gpu.deregister(id);
            check(&gpu);
        }
        assert_eq!(gpu.client_count(), 0);

        // Oversubscription: more clients than SMs.
        let mut small = GpuModel::v100();
        small.sm_count = 3;
        let small_sm = small.sm_count;
        let gpu = SharedGpu::new(small);
        for id in 0..5u32 {
            gpu.register(id);
            let slices = gpu.slice_sms();
            assert!(slices.values().all(|&s| s >= 1));
            let total: usize = slices.values().sum();
            assert_eq!(total, small_sm.max(slices.len()));
        }
    }

    #[test]
    fn degraded_client_yields_sms_to_interactive() {
        let sm = GpuModel::v100().sm_count;
        let gpu = SharedGpu::new(GpuModel::v100());
        gpu.register(1);
        gpu.register(2);
        // Equal priorities: equal split.
        let even = gpu.slice_sms();
        assert_eq!(even[&1], sm / 2);
        assert_eq!(even[&2], sm / 2);
        assert_eq!(gpu.priority(1), Some(SlicePriority::Interactive));
        // Degrade client 2: it keeps ≥ 1 SM but the interactive client
        // takes the lion's share; the budget still sums exactly.
        assert!(gpu.set_priority(2, SlicePriority::Degraded));
        assert!(!gpu.set_priority(2, SlicePriority::Degraded), "no-op edge");
        let skewed = gpu.slice_sms();
        let a = skewed[&1];
        let b = skewed[&2];
        assert_eq!(a + b, sm);
        assert!(b >= 1);
        assert!(a > b, "interactive {a} must outrank degraded {b}");
        assert_eq!(gpu.priority(2), Some(SlicePriority::Degraded));
        // Promote back: layout returns to the equal split.
        assert!(gpu.set_priority(2, SlicePriority::Interactive));
        assert_eq!(gpu.slice_sms(), even);
        // Unregistered clients are a no-op.
        assert!(!gpu.set_priority(99, SlicePriority::Degraded));
        assert_eq!(gpu.priority(99), None);
    }

    #[test]
    fn priority_survives_churn_and_oversubscription() {
        let sm = GpuModel::v100().sm_count;
        let gpu = SharedGpu::new(GpuModel::v100());
        gpu.register(1);
        gpu.register(2);
        gpu.set_priority(2, SlicePriority::Degraded);
        // Another client joining and leaving rebalances the table but
        // must not silently re-promote the degraded one.
        gpu.register(3);
        gpu.deregister(3);
        assert_eq!(gpu.priority(2), Some(SlicePriority::Degraded));
        let slices = gpu.slice_sms();
        assert_eq!(slices.values().sum::<usize>(), sm);
        assert!(slices[&1] > slices[&2]);
        // Oversubscribed devices still degrade to one SM per client
        // regardless of priority.
        let mut tiny = GpuModel::v100();
        tiny.sm_count = 2;
        let gpu = SharedGpu::new(tiny);
        for id in 0..4u32 {
            gpu.register(id);
        }
        gpu.set_priority(0, SlicePriority::Degraded);
        assert!(gpu.slice_sms().values().all(|&s| s == 1));
    }

    #[test]
    fn concurrent_slices_run_independently() {
        let gpu = Arc::new(SharedGpu::new(GpuModel::v100()));
        gpu.register(1);
        gpu.register(2);
        let g1 = gpu.clone();
        let g2 = gpu.clone();
        let items: Vec<u64> = (0..500).collect();
        let items2 = items.clone();
        let h1 = std::thread::spawn(move || {
            let ex = g1.executor(1).unwrap();
            ex.par_map(&items, |x| x + 1)
        });
        let h2 = std::thread::spawn(move || {
            let ex = g2.executor(2).unwrap();
            ex.par_map(&items2, |x| x * 2)
        });
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert_eq!(r1[10], 11);
        assert_eq!(r2[10], 20);
    }
}
