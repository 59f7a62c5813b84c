//! **Table 4**: average merge-latency breakdown, SLAM-Share vs. baseline.
//!
//! Paper (ms): baseline = hold-down 5000 + serialize 78.1 + transfer 66 +
//! deserialize 390.8 + merge 2339 + processing 132 + transfer-2 6.4 +
//! load 19.8 = **8006**; SLAM-Share = encoding 3 + transfer 0.11 + merge
//! 190 + transfer-2 0.1 = **193** — ≥30× less. The rows that vanish for
//! SLAM-Share vanish *because of shared memory* (no serialization, no map
//! transfer), which this experiment demonstrates with real measurements of
//! both pipelines over the same client maps.

use super::Effort;
use crate::baseline::{baseline_exchange_round, BaselineClient, BaselineConfig, BaselineServer};
use serde::Serialize;
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig};
use slamshare_net::codec::VideoEncoder;
use slamshare_net::link::{Channel, LinkConfig};
use slamshare_sim::clock::SimTime;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::system::SlamConfig;
use slamshare_slam::vocabulary;
use std::sync::Arc;

#[derive(Debug, Clone, Serialize, Default)]
pub struct Table4Result {
    pub runs: usize,
    // Baseline rows (ms, averaged).
    pub b_hold_down: f64,
    pub b_serialize: f64,
    pub b_transfer_up: f64,
    pub b_deserialize: f64,
    pub b_merge: f64,
    pub b_processing: f64,
    pub b_transfer_down: f64,
    pub b_load: f64,
    pub b_total: f64,
    // SLAM-Share rows (ms, averaged).
    pub s_encode: f64,
    pub s_transfer_up: f64,
    pub s_merge: f64,
    pub s_transfer_down: f64,
    pub s_total: f64,
    pub speedup: f64,
}

pub fn run(effort: Effort) -> Table4Result {
    let frames = effort.frames(200);
    let reps = effort.reps(10);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut acc = Table4Result {
        runs: reps,
        ..Default::default()
    };

    for rep in 0..reps {
        let seed_a = 100 + rep as u64;
        let seed_b = 200 + rep as u64;
        let ds_a = Dataset::build(
            DatasetConfig::new(TracePreset::MH04)
                .with_frames(frames)
                .with_seed(seed_a),
        );
        let ds_b = Dataset::build(
            DatasetConfig::new(TracePreset::MH05)
                .with_frames(frames)
                .with_seed(seed_b),
        );

        // ---------------- Baseline pipeline ----------------
        let mut client_a = BaselineClient::new(
            1,
            SlamConfig::stereo(ds_a.rig),
            vocab.clone(),
            BaselineConfig::default(),
        );
        let mut client_b = BaselineClient::new(
            2,
            SlamConfig::stereo(ds_b.rig),
            vocab.clone(),
            BaselineConfig::default(),
        );
        for i in 0..frames {
            let (l, r) = ds_a.render_stereo_frame(i);
            client_a.on_frame(
                ds_a.frame_time(i),
                &l,
                Some(&r),
                &[],
                (i == 0).then(|| ds_a.gt_pose_cw(0)),
            );
            let (l, r) = ds_b.render_stereo_frame(i);
            client_b.on_frame(ds_b.frame_time(i), &l, Some(&r), &[], None);
        }
        let mut bserver = BaselineServer::new(vocab.clone(), ds_a.rig.cam, false);
        let mut channel = Channel::symmetric(LinkConfig::ten_gbe());
        // Seed the server with A's map, then measure B's merge round (the
        // interesting one: two-map merge).
        let (_, _) = baseline_exchange_round(
            &mut client_a,
            &mut bserver,
            &mut channel,
            SimTime::ZERO,
            0.0,
        );
        let (lat, _) = baseline_exchange_round(
            &mut client_b,
            &mut bserver,
            &mut channel,
            SimTime::ZERO,
            0.0,
        );
        acc.b_hold_down += lat.hold_down_ms;
        acc.b_serialize += lat.serialize_ms;
        acc.b_transfer_up += lat.transfer_up_ms;
        acc.b_deserialize += lat.deserialize_ms;
        acc.b_merge += lat.merge_ms;
        acc.b_processing += lat.data_processing_ms;
        acc.b_transfer_down += lat.transfer_down_ms;
        acc.b_load += lat.load_map_ms;
        acc.b_total += lat.total_ms();

        // ---------------- SLAM-Share pipeline ----------------
        // Client maps build on the server (video upload); the merge is a
        // shared-memory operation. The per-frame encode+transfer is the
        // only client-side cost that replaces the baseline's entire
        // serialize→ship→load pipeline.
        let mut config = ServerConfig::stereo_default(ds_a.rig);
        // Keep the automatic trigger out of the way: we invoke process M
        // explicitly to time it.
        config.merge_after_keyframes = usize::MAX;
        let mut server = EdgeServer::new(config, vocab.clone());
        for id in [1, 2] {
            server
                .try_register_client(id)
                .expect("fresh unbounded server, distinct ids");
        }

        let mut encode_ms_total = 0.0;
        let mut frames_encoded = 0usize;
        let mut uplink_ms = 0.0;
        for (cid, ds, anchor) in [(1u16, &ds_a, true), (2u16, &ds_b, false)] {
            // Each client has its own uplink (as in the testbed); reusing
            // one link would queue B's stream behind A's whole history.
            let mut schannel = Channel::symmetric(LinkConfig::ten_gbe());
            let mut enc_l = VideoEncoder::default();
            let mut enc_r = VideoEncoder::default();
            for i in 0..frames {
                let (l, r) = ds.render_stereo_frame(i);
                let el = enc_l.encode(&l);
                let er = enc_r.encode(&r);
                encode_ms_total += el.encode_ms + er.encode_ms;
                frames_encoded += 1;
                let now = SimTime::from_secs(ds.frame_time(i));
                let sent = schannel.uplink.send(now, el.data.len() + er.data.len());
                uplink_ms += sent.since(now).as_millis();
                let frame = QueuedFrame {
                    frame_idx: i,
                    timestamp: ds.frame_time(i),
                    left: el.data.to_vec(),
                    right: Some(er.data.to_vec()),
                    pose_hint: (anchor && i == 0).then(|| ds.gt_pose_cw(0)),
                    ..QueuedFrame::default()
                };
                server.offer_frame(cid, frame).expect("registered client");
                server.process_queued_round();
            }
        }
        let merge_a = server
            .merge_client_now(1, 0.0)
            .expect("A absorbs into empty map");
        let merge_b = server
            .merge_client_now(2, 0.0)
            .expect("B must find A's overlapping coverage");
        let _ = merge_a;
        // The pose reply is 136 bytes on the downlink.
        let mut reply_channel = Channel::symmetric(LinkConfig::ten_gbe());
        let now = SimTime::from_secs(100.0);
        let reply = reply_channel.downlink.send(now, 136);

        acc.s_encode += encode_ms_total / frames_encoded.max(1) as f64;
        acc.s_transfer_up += uplink_ms / frames_encoded.max(1) as f64;
        acc.s_merge += merge_b.merge_ms;
        acc.s_transfer_down += reply.since(now).as_millis();
    }

    let n = reps as f64;
    for v in [
        &mut acc.b_hold_down,
        &mut acc.b_serialize,
        &mut acc.b_transfer_up,
        &mut acc.b_deserialize,
        &mut acc.b_merge,
        &mut acc.b_processing,
        &mut acc.b_transfer_down,
        &mut acc.b_load,
        &mut acc.b_total,
        &mut acc.s_encode,
        &mut acc.s_transfer_up,
        &mut acc.s_merge,
        &mut acc.s_transfer_down,
    ] {
        *v /= n;
    }
    acc.s_total = acc.s_encode + acc.s_transfer_up + acc.s_merge + acc.s_transfer_down;
    acc.speedup = acc.b_total / acc.s_total.max(1e-9);
    acc
}

impl Table4Result {
    pub fn render_text(&self) -> String {
        let row = |name: &str, b: Option<f64>, s: Option<f64>| {
            vec![
                name.to_string(),
                b.map(|v| format!("{v:.1}")).unwrap_or_else(|| "N/A".into()),
                s.map(|v| format!("{v:.2}")).unwrap_or_else(|| "N/A".into()),
            ]
        };
        let rows = vec![
            row("1. Hold-down Time", Some(self.b_hold_down), None),
            row("2. Serialization", Some(self.b_serialize), None),
            row("3. Encoding", None, Some(self.s_encode)),
            row(
                "4. Data Transfer 1",
                Some(self.b_transfer_up),
                Some(self.s_transfer_up),
            ),
            row("5. Deserialization", Some(self.b_deserialize), None),
            row("6. Map Merging", Some(self.b_merge), Some(self.s_merge)),
            row("7. Data Processing", Some(self.b_processing), None),
            row(
                "8. Data Transfer 2",
                Some(self.b_transfer_down),
                Some(self.s_transfer_down),
            ),
            row("9. Load Map", Some(self.b_load), None),
            row("Total", Some(self.b_total), Some(self.s_total)),
        ];
        format!(
            "Table 4: merge latency breakdown over {} runs (ms)\n{}\nspeedup: {:.0}x\n",
            self.runs,
            super::render_table(&["Component", "Baseline (ms)", "SLAM-Share (ms)"], &rows),
            self.speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slamshare_merge_is_orders_faster() {
        let r = run(Effort::Smoke);
        assert!(
            r.b_total > 5000.0,
            "baseline lost its hold-down: {}",
            r.b_total
        );
        assert!(r.b_serialize > 0.0 && r.b_deserialize > 0.0);
        assert!(r.s_merge > 0.0);
        // The headline: ≥30× in the paper; we demand at least 10× here at
        // smoke scale (tiny maps shrink the baseline's serialize/merge
        // terms but the hold-down keeps the gap wide).
        assert!(r.speedup > 10.0, "speedup only {:.1}x", r.speedup);
        // Shared memory eliminates, not just shrinks, the map shipping:
        // SLAM-Share's transfers are sub-millisecond.
        assert!(r.s_transfer_up < 5.0);
        assert!(r.s_transfer_down < 1.0);
        let text = r.render_text();
        assert!(text.contains("N/A"), "missing N/A rows:\n{text}");
    }
}
