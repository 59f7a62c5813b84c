//! Compact binary wire encoding.
//!
//! A small hand-rolled format (little-endian, varint-free for simplicity)
//! for everything that crosses the link. The important customer is the
//! **map codec**: the Edge-SLAM-style baseline serializes whole client
//! maps to the server and map slices back (Table 4 rows 2 and 5 are the
//! serialize/deserialize times; Table 1 is the encoded size).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use slamshare_features::bow::BowVector;
use slamshare_features::{Descriptor, KeyPoint};
use slamshare_math::{Quat, Vec2, Vec3, SE3};
use slamshare_slam::ids::{ClientId, KeyFrameId, MapPointId};
use slamshare_slam::map::{KeyFrame, Map, MapPoint};

/// Encoding error (decoding side; encoding is infallible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// A tag byte had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded sanity bounds.
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum plausible element count in any length-prefixed sequence, to
/// stop corrupted lengths from causing huge allocations.
const MAX_SEQ: u64 = 64 * 1024 * 1024;

/// Serializer over a growable buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter {
            buf: BytesMut::with_capacity(4096),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.put_slice(v);
    }

    pub fn vec2(&mut self, v: Vec2) {
        self.f64(v.x);
        self.f64(v.y);
    }

    pub fn vec3(&mut self, v: Vec3) {
        self.f64(v.x);
        self.f64(v.y);
        self.f64(v.z);
    }

    pub fn quat(&mut self, q: Quat) {
        self.f64(q.w);
        self.f64(q.x);
        self.f64(q.y);
        self.f64(q.z);
    }

    pub fn se3(&mut self, t: &SE3) {
        self.quat(t.rot);
        self.vec3(t.trans);
    }

    pub fn descriptor(&mut self, d: &Descriptor) {
        self.buf.put_slice(&d.0);
    }

    pub fn keypoint(&mut self, kp: &KeyPoint) {
        self.vec2(kp.pt);
        self.u8(kp.octave);
        self.f64(kp.angle);
        self.f64(kp.response);
        self.f64(kp.right_x);
        self.f64(kp.depth);
    }
}

/// Deserializer over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > MAX_SEQ {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.seq_len()?;
        self.need(n)?;
        let mut out = vec![0u8; n];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    pub fn vec2(&mut self) -> Result<Vec2, WireError> {
        Ok(Vec2::new(self.f64()?, self.f64()?))
    }

    pub fn vec3(&mut self) -> Result<Vec3, WireError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    pub fn quat(&mut self) -> Result<Quat, WireError> {
        Ok(Quat::new(
            self.f64()?,
            self.f64()?,
            self.f64()?,
            self.f64()?,
        ))
    }

    pub fn se3(&mut self) -> Result<SE3, WireError> {
        Ok(SE3 {
            rot: self.quat()?,
            trans: self.vec3()?,
        })
    }

    pub fn descriptor(&mut self) -> Result<Descriptor, WireError> {
        self.need(32)?;
        let mut d = Descriptor::ZERO;
        self.buf.copy_to_slice(&mut d.0);
        Ok(d)
    }

    pub fn keypoint(&mut self) -> Result<KeyPoint, WireError> {
        Ok(KeyPoint {
            pt: self.vec2()?,
            octave: self.u8()?,
            angle: self.f64()?,
            response: self.f64()?,
            right_x: self.f64()?,
            depth: self.f64()?,
        })
    }
}

/// Encode a whole SLAM map — the baseline's periodic upload.
pub fn encode_map(map: &Map) -> Bytes {
    let mut w = WireWriter::new();
    w.u64(map.alloc.client.0 as u64);
    w.u64(map.keyframes.len() as u64);
    for kf in map.keyframes.values() {
        encode_keyframe(&mut w, kf);
    }
    w.u64(map.mappoints.len() as u64);
    for mp in map.mappoints.values() {
        encode_mappoint(&mut w, mp);
    }
    w.finish()
}

fn encode_keyframe(w: &mut WireWriter, kf: &KeyFrame) {
    w.u64(kf.id.0);
    w.se3(&kf.pose_cw);
    w.f64(kf.timestamp);
    w.u64(kf.keypoints.len() as u64);
    for kp in &kf.keypoints {
        w.keypoint(kp);
    }
    for d in &kf.descriptors {
        w.descriptor(d);
    }
    for m in &kf.matched_points {
        match m {
            Some(id) => {
                w.u8(1);
                w.u64(id.0);
            }
            None => w.u8(0),
        }
    }
    w.u64(kf.bow.0.len() as u64);
    for (&word, &weight) in &kf.bow.0 {
        w.u32(word);
        w.f64(weight);
    }
}

fn encode_mappoint(w: &mut WireWriter, mp: &MapPoint) {
    w.u64(mp.id.0);
    w.vec3(mp.position);
    w.descriptor(&mp.descriptor);
    w.vec3(mp.normal);
    w.u64(mp.observations.len() as u64);
    for (kf, idx) in &mp.observations {
        w.u64(kf.0);
        w.u64(*idx as u64);
    }
    match mp.replaced_by {
        Some(id) => {
            w.u8(1);
            w.u64(id.0);
        }
        None => w.u8(0),
    }
}

/// Decode a map encoded by [`encode_map`].
pub fn decode_map(bytes: &[u8]) -> Result<Map, WireError> {
    let mut r = WireReader::new(bytes);
    let client = ClientId(r.u64()? as u16);
    let mut map = Map::new(client);
    let n_kf = r.seq_len()?;
    for _ in 0..n_kf {
        let kf = decode_keyframe(&mut r)?;
        map.keyframes.insert(kf.id, kf);
    }
    let n_mp = r.seq_len()?;
    for _ in 0..n_mp {
        let mp = decode_mappoint(&mut r)?;
        map.mappoints.insert(mp.id, mp);
    }
    Ok(map)
}

fn decode_keyframe(r: &mut WireReader) -> Result<KeyFrame, WireError> {
    let id = KeyFrameId(r.u64()?);
    let pose_cw = r.se3()?;
    let timestamp = r.f64()?;
    let n = r.seq_len()?;
    let mut keypoints = Vec::with_capacity(n);
    for _ in 0..n {
        keypoints.push(r.keypoint()?);
    }
    let mut descriptors = Vec::with_capacity(n);
    for _ in 0..n {
        descriptors.push(r.descriptor()?);
    }
    let mut matched_points = Vec::with_capacity(n);
    for _ in 0..n {
        matched_points.push(match r.u8()? {
            0 => None,
            1 => Some(MapPointId(r.u64()?)),
            t => return Err(WireError::BadTag(t)),
        });
    }
    let n_words = r.seq_len()?;
    let mut bow = BowVector::default();
    for _ in 0..n_words {
        let word = r.u32()?;
        let weight = r.f64()?;
        bow.0.insert(word, weight);
    }
    Ok(KeyFrame {
        id,
        pose_cw,
        timestamp,
        keypoints,
        descriptors,
        matched_points,
        bow,
    })
}

fn decode_mappoint(r: &mut WireReader) -> Result<MapPoint, WireError> {
    let id = MapPointId(r.u64()?);
    let position = r.vec3()?;
    let descriptor = r.descriptor()?;
    let normal = r.vec3()?;
    let n_obs = r.seq_len()?;
    let mut observations = Vec::with_capacity(n_obs);
    for _ in 0..n_obs {
        let kf = KeyFrameId(r.u64()?);
        let idx = r.u64()? as usize;
        observations.push((kf, idx));
    }
    let replaced_by = match r.u8()? {
        0 => None,
        1 => Some(MapPointId(r.u64()?)),
        t => return Err(WireError::BadTag(t)),
    };
    Ok(MapPoint {
        id,
        position,
        descriptor,
        normal,
        observations,
        replaced_by,
        // Not carried on the wire: the receiving map re-stamps ages from
        // its own frame clock.
        created_frame: 0,
    })
}

/// Encode the pose reply the SLAM-Share server sends per frame — "a small
/// 4×4 matrix" (§4.3.1) plus the frame index it answers.
pub fn encode_pose_reply(frame_idx: u64, pose: &SE3) -> Bytes {
    let mut w = WireWriter::new();
    w.u64(frame_idx);
    for row in pose.to_homogeneous() {
        for v in row {
            w.f64(v);
        }
    }
    w.finish()
}

/// Decode a pose reply.
pub fn decode_pose_reply(bytes: &[u8]) -> Result<(u64, SE3), WireError> {
    let mut r = WireReader::new(bytes);
    let idx = r.u64()?;
    let mut h = [[0.0f64; 4]; 4];
    for row in h.iter_mut() {
        for v in row.iter_mut() {
            *v = r.f64()?;
        }
    }
    Ok((idx, SE3::from_homogeneous(&h)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_features::bow::BowVector;
    use slamshare_math::Quat;
    use slamshare_slam::map::MapWrite;

    fn sample_map() -> Map {
        let mut map = Map::new(ClientId(3));
        let kf_id = map.alloc.next_keyframe();
        let mut bow = BowVector::default();
        bow.0.insert(5, 0.25);
        bow.0.insert(99, 0.75);
        let mut desc = Descriptor::ZERO;
        desc.set_bit(7);
        desc.set_bit(201);
        let kp = KeyPoint {
            pt: Vec2::new(10.5, 20.25),
            octave: 2,
            angle: 0.7,
            response: 31.0,
            right_x: 9.25,
            depth: 4.5,
        };
        map.insert_keyframe(KeyFrame {
            id: kf_id,
            pose_cw: SE3::new(
                Quat::from_axis_angle(Vec3::Z, 0.3),
                Vec3::new(1.0, -2.0, 3.0),
            ),
            timestamp: 1.25,
            keypoints: vec![kp; 4],
            descriptors: vec![desc; 4],
            matched_points: vec![None; 4],
            bow,
        });
        map.create_mappoint(Vec3::new(0.5, 1.5, 6.0), desc, kf_id, 1);
        map.create_mappoint(Vec3::new(-1.0, 0.25, 4.0), desc, kf_id, 3);
        map
    }

    #[test]
    fn map_roundtrip_preserves_everything() {
        let map = sample_map();
        let encoded = encode_map(&map);
        let decoded = decode_map(&encoded).unwrap();
        assert_eq!(decoded.n_keyframes(), map.n_keyframes());
        assert_eq!(decoded.n_mappoints(), map.n_mappoints());
        let (ko, kd) = (
            map.keyframes.values().next().unwrap(),
            decoded.keyframes.values().next().unwrap(),
        );
        assert_eq!(ko.id, kd.id);
        assert_eq!(ko.timestamp, kd.timestamp);
        assert_eq!(ko.keypoints, kd.keypoints);
        assert_eq!(ko.descriptors, kd.descriptors);
        assert_eq!(ko.matched_points, kd.matched_points);
        assert_eq!(ko.bow, kd.bow);
        assert!((ko.pose_cw.trans - kd.pose_cw.trans).norm() < 1e-12);
        for (a, b) in map.mappoints.values().zip(decoded.mappoints.values()) {
            assert_eq!(a.id, b.id);
            assert!((a.position - b.position).norm() < 1e-12);
            assert_eq!(a.observations, b.observations);
        }
    }

    #[test]
    fn encoded_size_tracks_content() {
        let map = sample_map();
        let small = encode_map(&map).len();
        let mut bigger = sample_map();
        let kf_id = *bigger.keyframes.keys().next().unwrap();
        for i in 0..100 {
            bigger.create_mappoint(Vec3::new(i as f64, 0.0, 5.0), Descriptor::ZERO, kf_id, 0);
        }
        assert!(encode_map(&bigger).len() > small + 100 * 90);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let map = sample_map();
        let encoded = encode_map(&map);
        for cut in [0usize, 1, 8, encoded.len() / 2, encoded.len() - 1] {
            let r = decode_map(&encoded[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut bytes = encode_map(&sample_map()).to_vec();
        // Overwrite the keyframe count with a huge value.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        match decode_map(&bytes) {
            Err(WireError::BadLength(_)) | Err(WireError::Truncated) => {}
            other => panic!("expected length error, got {other:?}"),
        }
    }

    #[test]
    fn pose_reply_roundtrip() {
        let pose = SE3::new(
            Quat::from_axis_angle(Vec3::X, -0.4),
            Vec3::new(0.1, 0.2, 0.3),
        );
        let bytes = encode_pose_reply(42, &pose);
        // 8 bytes index + 16 f64 = 136 bytes: genuinely "small".
        assert_eq!(bytes.len(), 136);
        let (idx, decoded) = decode_pose_reply(&bytes).unwrap();
        assert_eq!(idx, 42);
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert!((decoded.transform(p) - pose.transform(p)).norm() < 1e-10);
    }

    #[test]
    fn primitive_roundtrips() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(123456);
        w.u64(u64::MAX - 3);
        w.f64(-0.125);
        w.bytes(b"hello");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }
}
