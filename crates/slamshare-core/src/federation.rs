//! Multi-edge-server federation v1: static region partition, delta
//! exchange, client handoff.
//!
//! One [`EdgeServer`] is the scalability unit; this module runs N of them
//! as a federation serving one logical global map. The partition is
//! **static**: every [`crate::gmap`] region index is owned by exactly one
//! server ([`OwnershipMap`]), and because the region assigner is a pure
//! function of `(map_shards, REGION_CELL_M)`, all servers with the same
//! [`ServerConfig`] agree on which region — hence which owner — any world
//! position belongs to, with no coordination traffic.
//!
//! Three mechanisms follow from the partition:
//!
//! * **Delta exchange** — when a merge on server A lands content whose
//!   camera centers fall in regions owned by server B, the foreign
//!   sub-fragment is serialized as a [`slamshare_net::fed::MapDelta`]
//!   (the client's merged keyframes and points in those regions, as the
//!   merge left them in A's map), shipped over the A→B [`Link`] in
//!   virtual time, and
//!   absorbed on B under **only B's region locks**
//!   ([`EdgeServer::absorb_external_fragment`] returns the locked-region
//!   receipt so tests can verify that).
//! * **Client handoff** — when a client's tracked position crosses an
//!   ownership boundary, the client is transferred to the owning server:
//!   deregistered from the old home (GPU slices, queue and admission slot
//!   released, counters folded into the retired aggregate), announced
//!   over the link as a [`slamshare_net::fed::Handoff`], and registered
//!   fresh on the new home. The new home's ingest starts with no decoder
//!   reference, so the device must send a forced I-frame — the same
//!   resync protocol a decode fault triggers.
//! * **N=1 degeneracy** — a single-server federation
//!   ([`OwnershipMap::single`]) owns every region, so no delta is ever
//!   encoded and no handoff ever fires: the federated path is
//!   bit-identical to a plain [`EdgeServer`] by construction
//!   (tests/federation.rs pins this with golden digests).
//!
//! Failure modes are typed, never panics: wire decode failures surface as
//! [`FederationError`]s and are counted, a refused registration on the
//! destination (capacity) leaves the client on its old home untouched.

use crate::qos::{QueuedFrame, RegisterError};
use crate::server::{ClientError, EdgeServer, ServerConfig, ServerFrameResult};
use slamshare_features::bow::Vocabulary;
use slamshare_math::{Vec3, SE3};
use slamshare_net::fed::{FedMessage, FederationError, Handoff, MapDelta};
use slamshare_net::link::{Link, LinkConfig};
use slamshare_sim::clock::SimTime;
use slamshare_slam::ids::ClientId;
use slamshare_slam::map::Map;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A federation-wide server identity (index into the federation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

/// The static region → owning-server map: the gmap directory promoted to
/// a distributed ownership directory. Consulted on every cross-server
/// merge and every handoff decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipMap {
    owner: Vec<ServerId>,
}

impl OwnershipMap {
    /// Everything owned by server 0 — the single-server degeneracy.
    pub fn single(n_regions: usize) -> OwnershipMap {
        OwnershipMap {
            owner: vec![ServerId(0); n_regions.max(1)],
        }
    }

    /// Region `r` owned by server `r % n_servers`. Region indices are a
    /// hash of spatial grid cells, so round-robin spreads load evenly
    /// without any geometry knowledge.
    pub fn round_robin(n_regions: usize, n_servers: usize) -> OwnershipMap {
        let n = n_servers.max(1) as u32;
        OwnershipMap {
            owner: (0..n_regions.max(1))
                .map(|r| ServerId(r as u32 % n))
                .collect(),
        }
    }

    pub fn n_regions(&self) -> usize {
        self.owner.len()
    }

    /// Number of distinct servers referenced by the assignment.
    pub fn n_servers(&self) -> usize {
        self.owner
            .iter()
            .map(|s| s.0 as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Owner of a region index (out-of-range indices fall back to server
    /// 0 rather than panicking — the assigner never produces them).
    pub fn owner_of(&self, region: usize) -> ServerId {
        self.owner.get(region).copied().unwrap_or(ServerId(0))
    }

    /// Reassign a region to a new owner (evicted-region migration).
    /// Out-of-range regions are ignored.
    pub fn set_owner(&mut self, region: usize, server: ServerId) {
        if let Some(slot) = self.owner.get_mut(region) {
            *slot = server;
        }
    }

    /// Sorted region indices owned by `server`.
    pub fn regions_of(&self, server: ServerId) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == server)
            .map(|(r, _)| r)
            .collect()
    }
}

/// Federation-wide counters and latency samples.
#[derive(Debug, Clone, Default)]
pub struct FederationMetrics {
    /// Deltas encoded and shipped to a foreign owner.
    pub deltas_sent: u64,
    /// Deltas decoded and absorbed under the owner's region locks.
    pub deltas_applied: u64,
    /// Total delta payload bytes shipped.
    pub delta_bytes: u64,
    /// Wire messages that failed to decode (typed, counted, dropped).
    pub decode_errors: u64,
    /// Clients transferred across an ownership boundary.
    pub handoffs: u64,
    /// Handoffs refused by the destination (client stayed home).
    pub handoffs_refused: u64,
    /// Evicted regions migrated between servers in compact form.
    pub evicted_transfers: u64,
    /// Total compact payload bytes shipped by evicted-region transfers.
    pub evicted_transfer_bytes: u64,
    /// Wall-clock ms per delta apply (decode + absorb).
    pub delta_apply_ms: Vec<f64>,
    /// Virtual (link) ms per delta delivery.
    pub delta_link_ms: Vec<f64>,
    /// Virtual (link) ms per handoff announcement.
    pub handoff_ms: Vec<f64>,
}

fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted
        .get(idx.min(sorted.len() - 1))
        .copied()
        .unwrap_or(0.0)
}

impl FederationMetrics {
    pub fn delta_apply_p95_ms(&self) -> f64 {
        percentile(&self.delta_apply_ms, 0.95)
    }

    pub fn handoff_p99_ms(&self) -> f64 {
        percentile(&self.handoff_ms, 0.99)
    }
}

/// What [`Federation::maybe_handoff`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum HandoffResult {
    /// The position is still inside the home server's regions (or the
    /// client is unknown to the federation).
    NotNeeded,
    /// The client moved to a new home server.
    Transferred(HandoffReport),
    /// The destination refused the registration; the client stays on its
    /// old home, fully intact.
    Refused(RegisterError),
    /// The handoff announcement failed to decode at the destination; the
    /// client stays on its old home. (Only reachable with a corrupted
    /// transport — counted in [`FederationMetrics::decode_errors`].)
    WireFailure(FederationError),
}

/// A completed client transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffReport {
    pub client: u16,
    pub from: usize,
    pub to: usize,
    /// Virtual link latency of the handoff announcement, ms.
    pub link_ms: f64,
    /// The destination ingest has no decoder reference: the device must
    /// send a forced I-frame before tracking resumes (always true in v1).
    pub resync_required: bool,
}

/// A federation of N edge servers over a statically partitioned global
/// map, connected by a full mesh of virtual-time links.
pub struct Federation {
    servers: Vec<EdgeServer>,
    ownership: OwnershipMap,
    /// Full-mesh server↔server links, keyed `(from, to)`.
    links: HashMap<(usize, usize), Link>,
    /// Current home server per client.
    home: HashMap<u16, usize>,
    /// Per-origin monotone sequence numbers for fed messages.
    seq: Vec<u64>,
    /// How many merge-log entries per server have been delta-scanned.
    merge_seen: Vec<usize>,
    metrics: FederationMetrics,
}

impl Federation {
    /// Bring up `n_servers` identically-configured edge servers (each
    /// with its own store, GPU and merge worker) connected by a
    /// full mesh of `link` channels, with regions partitioned
    /// round-robin — or all owned by server 0 when `n_servers == 1`.
    pub fn new(
        n_servers: usize,
        config: ServerConfig,
        vocab: Arc<Vocabulary>,
        link: LinkConfig,
    ) -> Federation {
        let n = n_servers.max(1);
        let servers: Vec<EdgeServer> = (0..n)
            .map(|_| EdgeServer::new(config.clone(), vocab.clone()))
            .collect();
        let n_regions = config.map_shards.max(1);
        let ownership = if n == 1 {
            OwnershipMap::single(n_regions)
        } else {
            OwnershipMap::round_robin(n_regions, n)
        };
        let mut links = HashMap::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    links.insert((from, to), Link::new(link));
                }
            }
        }
        Federation {
            servers,
            ownership,
            links,
            home: HashMap::new(),
            seq: vec![0; n],
            merge_seen: vec![0; n],
            metrics: FederationMetrics::default(),
        }
    }

    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    pub fn server(&self, idx: usize) -> Option<&EdgeServer> {
        self.servers.get(idx)
    }

    pub fn server_mut(&mut self, idx: usize) -> Option<&mut EdgeServer> {
        self.servers.get_mut(idx)
    }

    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    pub fn metrics(&self) -> &FederationMetrics {
        &self.metrics
    }

    /// Current home server of a client.
    pub fn home_of(&self, client: u16) -> Option<usize> {
        self.home.get(&client).copied()
    }

    /// The server owning the region `position` falls in.
    pub fn owner_of_position(&self, position: Vec3) -> usize {
        match self.servers.first() {
            Some(s) => {
                let region = s.store.region_of(position);
                self.ownership.owner_of(region).0 as usize
            }
            None => 0,
        }
    }

    /// Register a client on the server owning its starting position.
    /// Returns the home server index.
    pub fn try_register_client(
        &mut self,
        client: u16,
        position: Vec3,
    ) -> Result<usize, RegisterError> {
        self.register_on(client, self.owner_of_position(position))
    }

    /// Register a client on server `target`, whatever placement policy
    /// chose it. Returns the home server index.
    pub fn register_on(&mut self, client: u16, target: usize) -> Result<usize, RegisterError> {
        match self.servers.get_mut(target) {
            Some(server) => {
                server.try_register_client(client)?;
                self.home.insert(client, target);
                Ok(target)
            }
            None => Err(RegisterError::AtCapacity { max: 0 }),
        }
    }

    /// Deregister a client from its home server.
    pub fn deregister_client(&mut self, client: u16) {
        if let Some(home) = self.home.remove(&client) {
            if let Some(server) = self.servers.get_mut(home) {
                server.deregister_client(client);
            }
        }
    }

    /// Stage a frame on the client's current home server.
    pub fn offer_frame(
        &self,
        client: u16,
        frame: QueuedFrame,
    ) -> Result<Option<QueuedFrame>, ClientError> {
        let home = self
            .home
            .get(&client)
            .copied()
            .ok_or(ClientError::UnknownClient(client))?;
        match self.servers.get(home) {
            Some(server) => server.offer_frame(client, frame),
            None => Err(ClientError::UnknownClient(client)),
        }
    }

    /// Run one staged round on every server (in server order), then
    /// exchange any newly produced cross-owner merge deltas. Returns
    /// `(server, results)` per server.
    pub fn process_queued_rounds(
        &mut self,
        now: SimTime,
    ) -> Vec<(usize, Vec<(u16, ServerFrameResult)>)> {
        let results: Vec<(usize, Vec<(u16, ServerFrameResult)>)> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.process_queued_round()))
            .collect();
        self.exchange_deltas(now);
        results
    }

    /// Scan every server's merge log for merges not yet examined, carve
    /// each merged client's contribution out of the global map, and ship
    /// the sub-fragments owned by *other* servers as wire deltas. Returns
    /// the number of deltas shipped.
    ///
    /// With a single server (or when every fragment region is home-owned)
    /// this encodes nothing and mutates nothing — the N=1 bit-identity
    /// path.
    pub fn exchange_deltas(&mut self, now: SimTime) -> usize {
        let mut shipped = 0;
        for from in 0..self.servers.len() {
            let log = match self.servers.get(from) {
                Some(s) => s.merge_log(),
                None => continue,
            };
            let seen = self.merge_seen.get(from).copied().unwrap_or(0);
            if log.len() <= seen {
                continue;
            }
            let new_clients: Vec<u16> = log
                .iter()
                .skip(seen)
                .map(|(_, client, _)| *client)
                .collect();
            if let Some(m) = self.merge_seen.get_mut(from) {
                *m = log.len();
            }
            for client in new_clients {
                shipped += self.ship_client_deltas(from, client, now);
            }
        }
        shipped
    }

    /// Extract `client`'s merged contribution from `from`'s global map,
    /// partition it by owning server, and ship+apply every foreign part.
    fn ship_client_deltas(&mut self, from: usize, client: u16, now: SimTime) -> usize {
        let parts = {
            let server = match self.servers.get(from) {
                Some(s) => s,
                None => return 0,
            };
            let _span = slamshare_obs::span!("fed.delta_encode");
            let fragment = server.store.client_fragment(ClientId(client));
            if fragment.keyframes.is_empty() && fragment.mappoints.is_empty() {
                return 0;
            }
            partition_fragment(server, &self.ownership, fragment)
        };
        let mut shipped = 0;
        for (to, part) in parts {
            if to == from {
                continue;
            }
            let seq = match self.seq.get_mut(from) {
                Some(s) => {
                    *s += 1;
                    *s
                }
                None => 0,
            };
            let msg = FedMessage::Delta(MapDelta {
                from_server: from as u32,
                seq,
                fragment: part,
            });
            let bytes = msg.encode();
            let delivered = match self.links.get_mut(&(from, to)) {
                Some(link) => link.send(now, bytes.len()),
                None => now,
            };
            self.metrics.deltas_sent += 1;
            self.metrics.delta_bytes += bytes.len() as u64;
            self.metrics
                .delta_link_ms
                .push(delivered.since(now).as_millis());
            slamshare_obs::counter_inc!("fed.deltas_sent");
            shipped += 1;
            // Virtual time: the delta is applied at its delivery instant;
            // servers are not internally clocked, so the apply happens
            // here and the latency is accounted from the link model.
            match self.apply_delta_bytes(to, &bytes) {
                Ok(_receipt) => {}
                Err(_) => {
                    // Encoded locally, so a decode failure here means the
                    // transport corrupted it — counted by apply.
                }
            }
        }
        shipped
    }

    /// Decode a federation wire message addressed to server `to` and
    /// apply it. For deltas, returns the locked-region receipt of the
    /// absorb — tests verify it stays inside `to`'s owned regions.
    pub fn apply_delta_bytes(
        &mut self,
        to: usize,
        bytes: &[u8],
    ) -> Result<Vec<usize>, FederationError> {
        let start = Instant::now();
        let msg = match FedMessage::decode(bytes) {
            Ok(m) => m,
            Err(e) => {
                self.metrics.decode_errors += 1;
                return Err(e);
            }
        };
        match msg {
            FedMessage::Delta(delta) => {
                let _span = slamshare_obs::span!("fed.delta_apply");
                let receipt = match self.servers.get(to) {
                    Some(server) => server.absorb_external_fragment(delta.fragment),
                    None => Vec::new(),
                };
                self.metrics.deltas_applied += 1;
                self.metrics
                    .delta_apply_ms
                    .push(start.elapsed().as_secs_f64() * 1e3);
                slamshare_obs::counter_inc!("fed.deltas_applied");
                Ok(receipt)
            }
            FedMessage::Handoff(_) => Ok(Vec::new()),
        }
    }

    /// Transfer `client` to the server owning `position`, if that is no
    /// longer its home (see [`Federation::handoff_to`]).
    pub fn maybe_handoff(
        &mut self,
        client: u16,
        position: Vec3,
        now: SimTime,
        next_frame_idx: u64,
        timestamp: f64,
        last_pose: Option<SE3>,
    ) -> HandoffResult {
        let to = self.owner_of_position(position);
        self.handoff_to(client, to, now, next_frame_idx, timestamp, last_pose)
    }

    /// Transfer `client` to server `to`, if that is not already its home.
    /// `next_frame_idx`/`timestamp`/`last_pose` are the session facts
    /// announced to the destination.
    ///
    /// On success the old home has fully released the client (GPU slices,
    /// queue — purged frames counted in the retired aggregate — and
    /// admission slot) and the destination holds a fresh registration
    /// awaiting the forced I-frame resync. On refusal (destination at
    /// capacity) the client stays on its old home untouched.
    pub fn handoff_to(
        &mut self,
        client: u16,
        to: usize,
        now: SimTime,
        next_frame_idx: u64,
        timestamp: f64,
        last_pose: Option<SE3>,
    ) -> HandoffResult {
        let from = match self.home.get(&client).copied() {
            Some(h) => h,
            None => return HandoffResult::NotNeeded,
        };
        if to == from || self.servers.get(to).is_none() {
            return HandoffResult::NotNeeded;
        }
        let _span = slamshare_obs::span!("fed.handoff");
        let seq = match self.seq.get_mut(from) {
            Some(s) => {
                *s += 1;
                *s
            }
            None => 0,
        };
        let msg = FedMessage::Handoff(Handoff {
            client,
            from_server: from as u32,
            seq,
            next_frame_idx,
            timestamp,
            last_pose,
        });
        let bytes = msg.encode();
        // The announcement crosses the from→to link; registration happens
        // at its delivery instant.
        let delivered = match self.links.get_mut(&(from, to)) {
            Some(link) => link.send(now, bytes.len()),
            None => now,
        };
        match FedMessage::decode(&bytes) {
            Ok(FedMessage::Handoff(_)) => {}
            Ok(_) | Err(_) => {
                self.metrics.decode_errors += 1;
                return HandoffResult::WireFailure(FederationError::BadTag(0));
            }
        }
        // Register on the destination first: a refusal must leave the
        // client's old home untouched.
        if let Some(dest) = self.servers.get_mut(to) {
            if let Err(e) = dest.try_register_client(client) {
                self.metrics.handoffs_refused += 1;
                return HandoffResult::Refused(e);
            }
        }
        if let Some(old) = self.servers.get_mut(from) {
            old.deregister_client(client);
        }
        self.home.insert(client, to);
        self.metrics.handoffs += 1;
        let link_ms = delivered.since(now).as_millis();
        self.metrics.handoff_ms.push(link_ms);
        slamshare_obs::counter_inc!("fed.handoffs");
        HandoffResult::Transferred(HandoffReport {
            client,
            from,
            to,
            link_ms,
            resync_required: true,
        })
    }

    /// Migrate a cold region from `from` to `to` in compact form: the
    /// origin's [`crate::gmap::EvictedRegion`] stub is taken, its
    /// already-serialized payload crosses the link byte-for-byte (no
    /// decode + re-encode on either side), the destination installs the
    /// stub for reload-on-demand, and the ownership map is updated so
    /// future deltas for the region route to the new owner. The
    /// destination reloads the content lazily — only if and when a
    /// client actually touches the region.
    ///
    /// Returns `false` and leaves everything untouched when the region
    /// is not evicted at `from`, either server index is unknown, or the
    /// destination already holds content or a stub for the region (the
    /// stub is put back at the origin in that case).
    pub fn transfer_evicted_region(
        &mut self,
        region: usize,
        from: usize,
        to: usize,
        now: SimTime,
    ) -> bool {
        if from == to || self.servers.get(from).is_none() || self.servers.get(to).is_none() {
            return false;
        }
        let Some(stub) = self.servers[from].store.take_evicted(region) else {
            return false;
        };
        let _span = slamshare_obs::span!("fed.evicted_transfer");
        let bytes = stub.payload.len();
        if let Some(link) = self.links.get_mut(&(from, to)) {
            let _ = link.send(now, bytes);
        }
        if let Err(stub) = self.servers[to].store.install_evicted(region, stub) {
            // Destination refused (resident content or an existing
            // stub): restore the origin stub so nothing is lost.
            let _ = self.servers[from].store.install_evicted(region, stub);
            return false;
        }
        self.ownership.set_owner(region, ServerId(to as u32));
        self.metrics.evicted_transfers += 1;
        self.metrics.evicted_transfer_bytes += bytes as u64;
        slamshare_obs::counter_inc!("fed.evicted_transfers");
        true
    }
}

/// Split a fragment by owning server (keyframes by camera-center region,
/// map points by position region) and sanitize each part to be
/// self-contained: observations and match references crossing part
/// boundaries are dropped, since the destination may not hold the
/// referenced entity.
fn partition_fragment(
    server: &EdgeServer,
    ownership: &OwnershipMap,
    fragment: Map,
) -> BTreeMap<usize, Map> {
    let client = fragment.alloc.client;
    let mut parts: BTreeMap<usize, Map> = BTreeMap::new();
    for (id, kf) in fragment.keyframes {
        let owner = ownership
            .owner_of(server.store.region_of(kf.pose_cw.camera_center()))
            .0 as usize;
        parts
            .entry(owner)
            .or_insert_with(|| Map::new(client))
            .keyframes
            .insert(id, kf);
    }
    for (id, mp) in fragment.mappoints {
        let owner = ownership.owner_of(server.store.region_of(mp.position)).0 as usize;
        parts
            .entry(owner)
            .or_insert_with(|| Map::new(client))
            .mappoints
            .insert(id, mp);
    }
    for part in parts.values_mut() {
        let kf_ids: std::collections::BTreeSet<_> = part.keyframes.keys().copied().collect();
        let mp_ids: std::collections::BTreeSet<_> = part.mappoints.keys().copied().collect();
        for kf in part.keyframes.values_mut() {
            for m in kf.matched_points.iter_mut() {
                if let Some(id) = m {
                    if !mp_ids.contains(id) {
                        *m = None;
                    }
                }
            }
        }
        for mp in part.mappoints.values_mut() {
            mp.observations.retain(|(kf, _)| kf_ids.contains(kf));
            if let Some(r) = mp.replaced_by {
                if !mp_ids.contains(&r) {
                    mp.replaced_by = None;
                }
            }
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ownership_owns_everything() {
        let o = OwnershipMap::single(16);
        assert_eq!(o.n_regions(), 16);
        assert_eq!(o.n_servers(), 1);
        for r in 0..16 {
            assert_eq!(o.owner_of(r), ServerId(0));
        }
        assert_eq!(o.regions_of(ServerId(0)).len(), 16);
    }

    #[test]
    fn round_robin_partition_is_disjoint_and_total() {
        let o = OwnershipMap::round_robin(16, 3);
        assert_eq!(o.n_servers(), 3);
        let mut covered = [false; 16];
        for s in 0..3 {
            for r in o.regions_of(ServerId(s)) {
                assert!(!covered[r], "region {r} owned twice");
                covered[r] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "partition not total");
    }

    #[test]
    fn out_of_range_region_falls_back() {
        let o = OwnershipMap::round_robin(4, 2);
        assert_eq!(o.owner_of(999), ServerId(0));
    }

    #[test]
    fn percentiles_of_empty_are_zero() {
        let m = FederationMetrics::default();
        assert_eq!(m.delta_apply_p95_ms(), 0.0);
        assert_eq!(m.handoff_p99_ms(), 0.0);
    }

    #[test]
    fn percentile_picks_upper_tail() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&samples, 0.95) - 95.0).abs() <= 1.0);
        assert!((percentile(&samples, 0.99) - 99.0).abs() <= 1.0);
    }
}
