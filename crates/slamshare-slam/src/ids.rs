//! Identifier spaces for keyframes and map points.
//!
//! The paper (§4.3.1): *"when multiple clients merge their maps, there are
//! conflicts between their Keyframe and Mappoint indices, because each
//! client normally starts its indexing with 0. Therefore, we set different
//! starting indices for each client."* We encode the client in the top 16
//! bits of every id, so ids from different clients can never collide and a
//! merged global map needs no pointer rewriting at all.

use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// A client (user/device) identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u16);

/// A keyframe identifier, globally unique across clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeyFrameId(pub u64);

/// A map-point identifier, globally unique across clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MapPointId(pub u64);

const CLIENT_SHIFT: u32 = 48;
const LOCAL_MASK: u64 = (1 << CLIENT_SHIFT) - 1;

impl KeyFrameId {
    pub fn new(client: ClientId, local: u64) -> KeyFrameId {
        debug_assert!(local <= LOCAL_MASK);
        KeyFrameId(((client.0 as u64) << CLIENT_SHIFT) | local)
    }

    pub fn client(self) -> ClientId {
        ClientId((self.0 >> CLIENT_SHIFT) as u16)
    }

    pub fn local(self) -> u64 {
        self.0 & LOCAL_MASK
    }
}

impl MapPointId {
    pub fn new(client: ClientId, local: u64) -> MapPointId {
        debug_assert!(local <= LOCAL_MASK);
        MapPointId(((client.0 as u64) << CLIENT_SHIFT) | local)
    }

    pub fn client(self) -> ClientId {
        ClientId((self.0 >> CLIENT_SHIFT) as u16)
    }

    pub fn local(self) -> u64 {
        self.0 & LOCAL_MASK
    }
}

impl ClientId {
    /// Every keyframe id in this client's space: a range scan of an
    /// id-ordered map reads only this client's keyframes.
    pub fn keyframe_ids(self) -> RangeInclusive<KeyFrameId> {
        KeyFrameId::new(self, 0)..=KeyFrameId::new(self, LOCAL_MASK)
    }

    /// Every map-point id in this client's space.
    pub fn mappoint_ids(self) -> RangeInclusive<MapPointId> {
        MapPointId::new(self, 0)..=MapPointId::new(self, LOCAL_MASK)
    }
}

/// Allocates monotonically-increasing local ids inside one client's space.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IdAllocator {
    pub client: ClientId,
    next_kf: u64,
    next_mp: u64,
}

impl IdAllocator {
    pub fn new(client: ClientId) -> IdAllocator {
        IdAllocator {
            client,
            next_kf: 0,
            next_mp: 0,
        }
    }

    pub fn next_keyframe(&mut self) -> KeyFrameId {
        let id = KeyFrameId::new(self.client, self.next_kf);
        self.next_kf += 1;
        id
    }

    pub fn next_mappoint(&mut self) -> MapPointId {
        let id = MapPointId::new(self.client, self.next_mp);
        self.next_mp += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_embed_client() {
        let kf = KeyFrameId::new(ClientId(3), 42);
        assert_eq!(kf.client(), ClientId(3));
        assert_eq!(kf.local(), 42);
        let mp = MapPointId::new(ClientId(65535), 7);
        assert_eq!(mp.client(), ClientId(65535));
        assert_eq!(mp.local(), 7);
    }

    #[test]
    fn different_clients_never_collide() {
        // Same local index, different clients → distinct ids.
        let a = KeyFrameId::new(ClientId(1), 0);
        let b = KeyFrameId::new(ClientId(2), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn allocator_is_monotone_per_kind() {
        let mut alloc = IdAllocator::new(ClientId(5));
        let k1 = alloc.next_keyframe();
        let k2 = alloc.next_keyframe();
        let m1 = alloc.next_mappoint();
        assert!(k2 > k1);
        assert_eq!(k1.local(), 0);
        assert_eq!(k2.local(), 1);
        assert_eq!(m1.local(), 0);
        assert_eq!(m1.client(), ClientId(5));
    }

    #[test]
    fn ordering_groups_by_client() {
        let a = KeyFrameId::new(ClientId(1), 1000);
        let b = KeyFrameId::new(ClientId(2), 0);
        assert!(a < b, "client 1 ids sort before client 2 ids");
    }
}
