//! Federation wire messages: what edge servers exchange with each other.
//!
//! Two message kinds cross the server↔server links:
//!
//! * [`MapDelta`] — a fragment of the global map (the keyframes/mappoints
//!   a client's merge landed) bound for the server that owns the
//!   destination regions. The fragment
//!   reuses the [`crate::wire`] map codec, so the delta path inherits the
//!   codec's bounded-allocation guarantees.
//! * [`Handoff`] — a client transfer notice: the session facts the new
//!   home server needs to resume the client (next frame index, timestamp,
//!   last tracked pose) before the forced I-frame resync arrives.
//!
//! Decoding is **total** like the rest of this crate: adversarial bytes
//! produce a typed [`FederationError`], never a panic. Messages carry a
//! version byte and a tag byte so a mixed-version federation fails loudly
//! instead of misparsing.

use crate::wire::{decode_map, encode_map, WireError, WireReader, WireWriter};
use bytes::Bytes;
use slamshare_math::SE3;
use slamshare_slam::map::Map;

/// Wire-format version for the federation family. Bump on any layout
/// change — peers reject mismatches with [`FederationError::BadVersion`].
pub const FED_WIRE_VERSION: u8 = 2;

const TAG_DELTA: u8 = 1;
const TAG_HANDOFF: u8 = 2;
const TAG_REGION: u8 = 3;

/// Sanity bound on the point-age table inside one region snapshot.
const MAX_AGES: usize = 1 << 24;

/// Typed failure decoding (or validating) a federation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// The underlying byte stream was malformed.
    Wire(WireError),
    /// The peer speaks a different federation wire version.
    BadVersion(u8),
    /// The message tag byte was not a known [`FedMessage`] kind.
    BadTag(u8),
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederationError::Wire(e) => write!(f, "federation wire error: {e}"),
            FederationError::BadVersion(v) => {
                write!(f, "unsupported federation wire version {v}")
            }
            FederationError::BadTag(t) => write!(f, "unknown federation message tag {t}"),
        }
    }
}

impl std::error::Error for FederationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FederationError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for FederationError {
    fn from(e: WireError) -> FederationError {
        FederationError::Wire(e)
    }
}

/// A map-merge delta bound for the server owning the destination regions.
///
/// The fragment is the merged client's contribution exactly as the origin
/// server's merge planned it (world-frame poses/positions, namespaced
/// ids), so the owner can absorb it under only its own region locks.
#[derive(Debug, Clone)]
pub struct MapDelta {
    /// Origin server.
    pub from_server: u32,
    /// Per-origin monotone sequence number (FIFO links keep these in
    /// order; a gap means a lost delta).
    pub seq: u64,
    /// The map fragment to absorb.
    pub fragment: Map,
}

/// A client transfer notice from the old home server to the new one.
#[derive(Debug, Clone, PartialEq)]
pub struct Handoff {
    /// The client being transferred.
    pub client: u16,
    /// Origin (old home) server.
    pub from_server: u32,
    /// Per-origin monotone sequence number.
    pub seq: u64,
    /// The next frame index the client will upload.
    pub next_frame_idx: u64,
    /// Virtual timestamp of the transfer decision, seconds.
    pub timestamp: f64,
    /// Last tracked camera→world pose, if the client was tracking.
    pub last_pose: Option<SE3>,
}

/// The federation message family.
#[derive(Debug, Clone)]
pub enum FedMessage {
    Delta(MapDelta),
    Handoff(Handoff),
}

impl FedMessage {
    /// Encode to wire bytes (version byte, tag byte, payload).
    pub fn encode(&self) -> Bytes {
        let mut w = WireWriter::new();
        w.u8(FED_WIRE_VERSION);
        match self {
            FedMessage::Delta(d) => {
                w.u8(TAG_DELTA);
                w.u32(d.from_server);
                w.u64(d.seq);
                w.bytes(&encode_map(&d.fragment));
            }
            FedMessage::Handoff(h) => {
                w.u8(TAG_HANDOFF);
                w.u32(h.from_server);
                w.u64(h.seq);
                w.u64(h.client as u64);
                w.u64(h.next_frame_idx);
                w.f64(h.timestamp);
                match &h.last_pose {
                    Some(pose) => {
                        w.u8(1);
                        w.se3(pose);
                    }
                    None => w.u8(0),
                }
            }
        }
        w.finish()
    }

    /// Decode from wire bytes. Total: any input yields `Ok` or a typed
    /// [`FederationError`].
    pub fn decode(bytes: &[u8]) -> Result<FedMessage, FederationError> {
        let mut r = WireReader::new(bytes);
        let version = r.u8()?;
        if version != FED_WIRE_VERSION {
            return Err(FederationError::BadVersion(version));
        }
        match r.u8()? {
            TAG_DELTA => {
                let from_server = r.u32()?;
                let seq = r.u64()?;
                let fragment_bytes = r.bytes()?;
                let fragment = decode_map(&fragment_bytes)?;
                Ok(FedMessage::Delta(MapDelta {
                    from_server,
                    seq,
                    fragment,
                }))
            }
            TAG_HANDOFF => {
                let from_server = r.u32()?;
                let seq = r.u64()?;
                let client = r.u64()?;
                if client > u16::MAX as u64 {
                    return Err(FederationError::Wire(WireError::BadLength(client)));
                }
                let next_frame_idx = r.u64()?;
                let timestamp = r.f64()?;
                let last_pose = match r.u8()? {
                    0 => None,
                    1 => Some(r.se3()?),
                    t => return Err(FederationError::Wire(WireError::BadTag(t))),
                };
                Ok(FedMessage::Handoff(Handoff {
                    client: client as u16,
                    from_server,
                    seq,
                    next_frame_idx,
                    timestamp,
                    last_pose,
                }))
            }
            t => Err(FederationError::BadTag(t)),
        }
    }
}

/// The compact serialized form of an evicted global-map region: the
/// region's content as a map fragment plus the point-age table the base
/// map codec deliberately drops (`decode_map` re-stamps ages from the
/// receiving clock, but an evicted region must reload with its ages
/// intact so age-based pruning stays bit-identical to a never-evicted
/// run).
#[derive(Debug, Clone)]
pub struct RegionSnapshot {
    /// The region index the content was evicted from.
    pub region: u32,
    /// Value of the maintenance frame clock at eviction time.
    pub evicted_at_frame: u64,
    /// The evicted content (keyframes, map points, observations).
    pub fragment: Map,
}

/// Encode an evicted region to its compact wire form (version byte,
/// region tag, metadata, map fragment, point-age table).
pub fn encode_region_snapshot(snap: &RegionSnapshot) -> Bytes {
    let mut w = WireWriter::new();
    w.u8(FED_WIRE_VERSION);
    w.u8(TAG_REGION);
    w.u32(snap.region);
    w.u64(snap.evicted_at_frame);
    w.bytes(&encode_map(&snap.fragment));
    w.u64(snap.fragment.frame_clock);
    // Only non-zero ages need shipping; decode starts from the codec's
    // zero default.
    let aged: Vec<(u64, u64)> = snap
        .fragment
        .mappoints
        .values()
        .filter(|mp| mp.created_frame != 0)
        .map(|mp| (mp.id.0, mp.created_frame))
        .collect();
    w.u64(aged.len() as u64);
    for (id, frame) in aged {
        w.u64(id);
        w.u64(frame);
    }
    w.finish()
}

/// Decode a region snapshot. Total: any input yields `Ok` or a typed
/// [`FederationError`]; ages referencing unknown points are ignored.
pub fn decode_region_snapshot(bytes: &[u8]) -> Result<RegionSnapshot, FederationError> {
    let mut r = WireReader::new(bytes);
    let version = r.u8()?;
    if version != FED_WIRE_VERSION {
        return Err(FederationError::BadVersion(version));
    }
    let tag = r.u8()?;
    if tag != TAG_REGION {
        return Err(FederationError::BadTag(tag));
    }
    let region = r.u32()?;
    let evicted_at_frame = r.u64()?;
    let fragment_bytes = r.bytes()?;
    let mut fragment = decode_map(&fragment_bytes)?;
    fragment.frame_clock = r.u64()?;
    let n_aged = r.seq_len()?;
    if n_aged > MAX_AGES {
        return Err(FederationError::Wire(WireError::BadLength(n_aged as u64)));
    }
    for _ in 0..n_aged {
        let id = slamshare_slam::ids::MapPointId(r.u64()?);
        let frame = r.u64()?;
        if let Some(mp) = fragment.mappoints.get_mut(&id) {
            mp.created_frame = frame;
        }
    }
    Ok(RegionSnapshot {
        region,
        evicted_at_frame,
        fragment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_math::{Quat, Vec3};
    use slamshare_slam::ids::ClientId;
    use slamshare_slam::map::MapWrite;

    fn sample_fragment() -> Map {
        let mut map = Map::new(ClientId(9));
        let kf_id = map.alloc.next_keyframe();
        map.insert_keyframe(slamshare_slam::map::KeyFrame {
            id: kf_id,
            pose_cw: SE3::new(
                Quat::from_axis_angle(Vec3::Y, 0.2),
                Vec3::new(4.0, 0.0, -1.0),
            ),
            timestamp: 2.5,
            keypoints: vec![slamshare_features::KeyPoint {
                pt: slamshare_math::Vec2::new(3.0, 4.0),
                octave: 0,
                angle: 0.0,
                response: 1.0,
                right_x: -1.0,
                depth: 2.0,
            }],
            descriptors: vec![slamshare_features::Descriptor::ZERO],
            matched_points: vec![None],
            bow: Default::default(),
        });
        map.create_mappoint(
            Vec3::new(1.0, 2.0, 3.0),
            slamshare_features::Descriptor::ZERO,
            kf_id,
            0,
        );
        map
    }

    #[test]
    fn delta_roundtrip() {
        let msg = FedMessage::Delta(MapDelta {
            from_server: 3,
            seq: 41,
            fragment: sample_fragment(),
        });
        let bytes = msg.encode();
        match FedMessage::decode(&bytes).unwrap() {
            FedMessage::Delta(d) => {
                assert_eq!(d.from_server, 3);
                assert_eq!(d.seq, 41);
                assert_eq!(d.fragment.n_keyframes(), 1);
                assert_eq!(d.fragment.n_mappoints(), 1);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn handoff_roundtrip() {
        let msg = FedMessage::Handoff(Handoff {
            client: 7,
            from_server: 1,
            seq: 5,
            next_frame_idx: 123,
            timestamp: 9.75,
            last_pose: Some(SE3::new(
                Quat::from_axis_angle(Vec3::Z, -0.1),
                Vec3::new(0.5, 0.0, 2.0),
            )),
        });
        let bytes = msg.encode();
        match FedMessage::decode(&bytes).unwrap() {
            FedMessage::Handoff(h) => {
                assert_eq!(h.client, 7);
                assert_eq!(h.from_server, 1);
                assert_eq!(h.seq, 5);
                assert_eq!(h.next_frame_idx, 123);
                assert_eq!(h.timestamp, 9.75);
                assert!(h.last_pose.is_some());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn handoff_without_pose_roundtrips() {
        let msg = FedMessage::Handoff(Handoff {
            client: 0,
            from_server: 0,
            seq: 0,
            next_frame_idx: 0,
            timestamp: 0.0,
            last_pose: None,
        });
        match FedMessage::decode(&msg.encode()).unwrap() {
            FedMessage::Handoff(h) => assert_eq!(h.last_pose, None),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn region_snapshot_roundtrip_preserves_ages() {
        let mut fragment = sample_fragment();
        fragment.frame_clock = 99;
        let mp_id = *fragment.mappoints.keys().next().unwrap();
        fragment.mappoints.get_mut(&mp_id).unwrap().created_frame = 77;
        let snap = RegionSnapshot {
            region: 12,
            evicted_at_frame: 4321,
            fragment,
        };
        let bytes = encode_region_snapshot(&snap);
        let back = decode_region_snapshot(&bytes).unwrap();
        assert_eq!(back.region, 12);
        assert_eq!(back.evicted_at_frame, 4321);
        assert_eq!(back.fragment.frame_clock, 99);
        assert_eq!(back.fragment.n_keyframes(), 1);
        // The base map codec zeroes created_frame; the snapshot's age
        // table must restore it exactly.
        assert_eq!(back.fragment.mappoints[&mp_id].created_frame, 77);
    }

    #[test]
    fn region_snapshot_truncation_never_panics() {
        let snap = RegionSnapshot {
            region: 1,
            evicted_at_frame: 10,
            fragment: sample_fragment(),
        };
        let bytes = encode_region_snapshot(&snap);
        for cut in 0..bytes.len() {
            assert!(
                decode_region_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
        // A delta message is not a region snapshot.
        let delta = FedMessage::Delta(MapDelta {
            from_server: 0,
            seq: 0,
            fragment: sample_fragment(),
        })
        .encode();
        assert!(matches!(
            decode_region_snapshot(&delta),
            Err(FederationError::BadTag(TAG_DELTA))
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let msg = FedMessage::Handoff(Handoff {
            client: 1,
            from_server: 0,
            seq: 0,
            next_frame_idx: 0,
            timestamp: 0.0,
            last_pose: None,
        });
        let mut bytes = msg.encode().to_vec();
        bytes[0] = 99;
        match FedMessage::decode(&bytes) {
            Err(FederationError::BadVersion(99)) => {}
            other => panic!("expected BadVersion(99), got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        let bytes = [FED_WIRE_VERSION, 0xEE];
        match FedMessage::decode(&bytes) {
            Err(FederationError::BadTag(0xEE)) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn truncation_never_panics() {
        let msg = FedMessage::Delta(MapDelta {
            from_server: 2,
            seq: 1,
            fragment: sample_fragment(),
        });
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                FedMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // Deterministic pseudo-random garbage: every prefix must decode to
        // a typed error, never a panic.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = Vec::with_capacity(512);
        for _ in 0..512 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buf.push(x as u8);
        }
        for cut in 0..buf.len() {
            let _ = FedMessage::decode(&buf[..cut]);
        }
    }
}
