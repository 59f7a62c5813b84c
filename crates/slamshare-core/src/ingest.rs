//! Per-client video ingest: fault-isolated decoding with resync.
//!
//! One malformed byte from one client must never take down the edge
//! server, and must never disturb the other clients' rounds. This module
//! is the containment layer: it owns a client's stream decoders, turns
//! every decode failure into a **typed, counted state transition** instead
//! of a panic, and runs the resync protocol that brings a desynced stream
//! back:
//!
//! 1. a frame fails to decode → the client enters *awaiting-resync* (its
//!    decoder reference may no longer match the encoder's) and the server
//!    asks the device for an I-frame
//!    ([`slamshare_net::codec::VideoEncoder::request_iframe`]);
//! 2. while awaiting resync, every non-intra payload is dropped unseen —
//!    decoding a P-frame against a stale reference would silently corrupt
//!    the imagery tracking runs on;
//! 3. the resync I-frame arrives, decodes with no reference, and the
//!    first recovered frame is flagged for **relocalization**: the
//!    tracker's motion model is stale by however many frames were lost,
//!    so tracking restarts from a place-recognition hint instead of a
//!    bogus constant-velocity prediction.
//!
//! The decoders own the decoded frames: each advances its reference in
//! place and lends it ([`VideoIngest::left`], [`VideoIngest::right`])
//! until the next decode, so a frame is never copied out.
//!
//! Everything is counted in [`IngestCounters`] (lock-free atomics shared
//! with [`crate::server::EdgeServer::metrics`]) so a flaky client is
//! visible in operations, not just in logs.

use serde::Serialize;
use slamshare_features::GrayImage;
use slamshare_net::codec::{payload_is_iframe, CodecError, VideoDecoder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lock-free per-client ingest counters. The client process increments
/// them under its own mutex; metrics readers load them without touching
/// that mutex.
#[derive(Debug, Default)]
pub struct IngestCounters {
    frames_decoded: AtomicU64,
    decode_errors: AtomicU64,
    dropped_frames: AtomicU64,
    resyncs: AtomicU64,
    relocalizations: AtomicU64,
}

impl IngestCounters {
    pub fn record_frame_decoded(&self) {
        self.frames_decoded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_dropped(&self) {
        self.dropped_frames.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_resync(&self) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_relocalization(&self) {
        self.relocalizations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ClientIngestSnapshot {
        ClientIngestSnapshot {
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            relocalizations: self.relocalizations.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one client's [`IngestCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClientIngestSnapshot {
    /// Frames that decoded cleanly (both eyes) and reached tracking.
    pub frames_decoded: u64,
    /// Payloads the codec rejected (typed [`CodecError`]s, not panics).
    pub decode_errors: u64,
    /// Frames dropped without reaching tracking: failed decodes plus
    /// everything discarded while awaiting the resync I-frame.
    pub dropped_frames: u64,
    /// Times the stream recovered via a resync I-frame.
    pub resyncs: u64,
    /// Times tracking restarted from a place-recognition hint after a
    /// resync.
    pub relocalizations: u64,
}

/// What the decode stage tells the tracking stage about one frame. The
/// images themselves stay in the client's decoders, which lend them
/// ([`VideoIngest::left`], [`VideoIngest::right`]) until the next decode.
#[derive(Debug)]
pub enum DecodeOutcome {
    /// Every eye that came decoded; tracking proceeds.
    Decoded {
        decode_ms: f64,
        /// First good frame after a resync: the tracker's motion model is
        /// stale — relocalize before tracking.
        relocalize: bool,
        /// A right-eye payload came and decoded ([`VideoIngest::right`]).
        stereo: bool,
    },
    /// The frame never reaches tracking. `fault` carries the codec error
    /// when this frame itself failed to decode; `None` when it was
    /// discarded while awaiting the resync I-frame.
    Dropped { fault: Option<CodecError> },
}

/// The per-client ingest state machine (decoders + resync state).
#[derive(Debug, Default)]
pub struct VideoIngest {
    decoder_left: VideoDecoder,
    decoder_right: VideoDecoder,
    /// Set on any decode failure; cleared when a full I-frame (both eyes)
    /// decodes.
    awaiting_resync: bool,
    counters: Arc<IngestCounters>,
}

impl VideoIngest {
    pub fn new() -> VideoIngest {
        VideoIngest::default()
    }

    /// The shared counter block (clone the `Arc` for lock-free metrics).
    pub fn counters(&self) -> Arc<IngestCounters> {
        self.counters.clone()
    }

    /// Whether this client's stream is desynced and the server wants the
    /// device to send an I-frame.
    pub fn awaiting_resync(&self) -> bool {
        self.awaiting_resync
    }

    /// The left eye of the last frame that decoded, lent by its decoder
    /// until the next [`VideoIngest::decode`].
    pub fn left(&self) -> &GrayImage {
        self.decoder_left.frame()
    }

    /// The right eye of the last frame whose right payload decoded, lent
    /// like [`VideoIngest::left`]. It is this frame's only when the
    /// outcome said `stereo`.
    pub fn right(&self) -> &GrayImage {
        self.decoder_right.frame()
    }

    /// Inform the state machine that one or more of this stream's frames
    /// were discarded *before* decode (a backpressure eviction, or uplink
    /// loss detected by a sequence gap): the decoder references no longer
    /// match the encoder's, so everything up to the next full I-frame
    /// must be dropped unseen — decoding a P-frame across the gap would
    /// silently corrupt the imagery instead of failing.
    pub fn note_discontinuity(&mut self) {
        self.awaiting_resync = true;
    }

    /// Decode one uploaded frame (both eyes) in the decoders, which then
    /// lend it. Total: any payload yields a [`DecodeOutcome`], never a
    /// panic, and a failed decode leaves the decoder references untouched
    /// (guaranteed by [`VideoDecoder`]).
    pub fn decode(&mut self, left: &[u8], right: Option<&[u8]>) -> DecodeOutcome {
        let _span = slamshare_obs::span!("round.decode");
        // Desynced: only a full intra frame can re-anchor the stream.
        // P-frames (and partial intra uploads in stereo) are dropped
        // unseen — their reference no longer exists on this side.
        if self.awaiting_resync && !(payload_is_iframe(left) && right.is_none_or(payload_is_iframe))
        {
            self.counters.record_dropped();
            return DecodeOutcome::Dropped { fault: None };
        }

        let t0 = Instant::now();
        if let Err(e) = self.decoder_left.decode_lent(left) {
            return self.fault(e);
        }
        if let Some(Err(e)) = right.map(|r| self.decoder_right.decode_lent(r)) {
            return self.fault(e);
        }
        let decode_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.counters.record_frame_decoded();
        slamshare_obs::counter_inc!("ingest.frames_decoded");

        let relocalize = self.awaiting_resync;
        if relocalize {
            self.awaiting_resync = false;
            self.counters.record_resync();
        }
        DecodeOutcome::Decoded {
            decode_ms,
            relocalize,
            stereo: right.is_some(),
        }
    }

    fn fault(&mut self, e: CodecError) -> DecodeOutcome {
        self.awaiting_resync = true;
        self.counters.record_decode_error();
        self.counters.record_dropped();
        DecodeOutcome::Dropped { fault: Some(e) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_net::codec::VideoEncoder;

    fn image(seed: u8) -> GrayImage {
        GrayImage::from_fn(32, 24, |x, y| {
            ((x * 7 + y * 5) as u8).wrapping_add(seed.wrapping_mul(31))
        })
    }

    #[test]
    fn clean_stream_decodes_without_state_changes() {
        let mut enc = VideoEncoder::default();
        let mut ingest = VideoIngest::new();
        for i in 0..4 {
            let e = enc.encode(&image(i));
            match ingest.decode(&e.data, None) {
                DecodeOutcome::Decoded { relocalize, .. } => assert!(!relocalize),
                DecodeOutcome::Dropped { .. } => panic!("clean frame dropped"),
            }
        }
        assert!(!ingest.awaiting_resync());
        assert_eq!(
            ingest.counters().snapshot(),
            ClientIngestSnapshot {
                frames_decoded: 4,
                ..ClientIngestSnapshot::default()
            }
        );
    }

    #[test]
    fn fault_then_resync_via_iframe() {
        let mut enc = VideoEncoder::default();
        let mut ingest = VideoIngest::new();
        let i0 = enc.encode(&image(0));
        assert!(matches!(
            ingest.decode(&i0.data, None),
            DecodeOutcome::Decoded { .. }
        ));

        // Garbage payload: typed fault, stream enters awaiting-resync.
        let out = ingest.decode(&[0xFF, 0x00, 0x01], None);
        assert!(matches!(out, DecodeOutcome::Dropped { fault: Some(_) }));
        assert!(ingest.awaiting_resync());

        // Subsequent P-frames are dropped unseen (no decode error —
        // they're never handed to the decoder).
        let p = enc.encode(&image(1));
        assert!(!p.is_iframe);
        assert!(matches!(
            ingest.decode(&p.data, None),
            DecodeOutcome::Dropped { fault: None }
        ));

        // The resync I-frame recovers and flags relocalization.
        enc.request_iframe();
        let i = enc.encode(&image(2));
        assert!(i.is_iframe);
        match ingest.decode(&i.data, None) {
            DecodeOutcome::Decoded { relocalize, .. } => assert!(relocalize),
            DecodeOutcome::Dropped { .. } => panic!("resync I-frame dropped"),
        }
        assert!(!ingest.awaiting_resync());

        let snap = ingest.counters().snapshot();
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.dropped_frames, 2);
        assert_eq!(snap.resyncs, 1);
    }

    #[test]
    fn stereo_resync_requires_both_eyes_intra() {
        let mut enc_l = VideoEncoder::default();
        let mut enc_r = VideoEncoder::default();
        let mut ingest = VideoIngest::new();
        let l0 = enc_l.encode(&image(0));
        let r0 = enc_r.encode(&image(10));
        assert!(matches!(
            ingest.decode(&l0.data, Some(&r0.data)),
            DecodeOutcome::Decoded { .. }
        ));

        // Right eye faults → both streams resync together.
        let l1 = enc_l.encode(&image(1));
        assert!(matches!(
            ingest.decode(&l1.data, Some(&[0xFF])),
            DecodeOutcome::Dropped { fault: Some(_) }
        ));
        assert!(ingest.awaiting_resync());

        // Left intra + right P-frame is not a full resync.
        enc_l.request_iframe();
        let l2 = enc_l.encode(&image(2));
        let r2 = enc_r.encode(&image(12));
        assert!(matches!(
            ingest.decode(&l2.data, Some(&r2.data)),
            DecodeOutcome::Dropped { fault: None }
        ));

        enc_l.request_iframe();
        enc_r.request_iframe();
        let l3 = enc_l.encode(&image(3));
        let r3 = enc_r.encode(&image(13));
        match ingest.decode(&l3.data, Some(&r3.data)) {
            DecodeOutcome::Decoded {
                relocalize, stereo, ..
            } => {
                assert!(relocalize);
                assert!(stereo);
            }
            DecodeOutcome::Dropped { .. } => panic!("full stereo resync dropped"),
        }
    }

    #[test]
    fn zero_length_and_truncated_payloads_are_faults() {
        for garbage in [&[][..], &[0xA1][..], &[0xA2, 1, 0, 0, 0][..]] {
            let mut ingest = VideoIngest::new();
            assert!(matches!(
                ingest.decode(garbage, None),
                DecodeOutcome::Dropped { fault: Some(_) }
            ));
            assert!(ingest.awaiting_resync());
        }
    }
}
