//! The four workloads and the inputs `--seed` generates for them.
//!
//! Every size here comes from probes of the unmodified server on a
//! 2-core host (README.md, "Workloads"): a pool holds about 1.3x the
//! frames a 15 s window consumes, so a run ends early, with fewer
//! samples, only after a speed-up of more than that.

use crate::rng::Rng;
use slamshare_features::GrayImage;
use slamshare_math::Vec3;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};

/// Frames a joiner may take to reach the shared map before the join
/// counts as failed, and frames it stays after its first shared pose.
pub const JOIN_DEADLINE_FRAMES: usize = 24;
pub const JOIN_LINGER_FRAMES: usize = 3;
const JOIN_SEGMENT: usize = JOIN_DEADLINE_FRAMES + JOIN_LINGER_FRAMES;

/// Open-loop rate of each `paced4` client, frames per second of wall
/// time: 4 x 2 = 8 frames/s is about 40 % of what this server sustains
/// on two cores. Probes at 4 x 3 (about 60 %) were steady while the host
/// was, but a host that slows by half then runs at 90 % and the tail
/// latency multiplies, so the yardstick sits further from saturation.
pub const PACED_FPS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Solo,
    Shared4,
    Paced4,
    JoinChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Solo, Kind::Shared4, Kind::Paced4, Kind::JoinChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Solo => "solo",
            Kind::Shared4 => "shared4",
            Kind::Paced4 => "paced4",
            Kind::JoinChurn => "join_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Rounds the first client runs alone before the others send their
    /// first frame. A map of 3 keyframes is too little for three more
    /// 3-keyframe maps to weld onto: without the head start roughly one
    /// seed in six aligned a merge badly, and that run then inserted twice
    /// the keyframes and ran 40 % slower (probes, seeds 1-20). With it the
    /// others join ground the first client has covered, as in the paper.
    pub fn head_start_rounds(self) -> usize {
        match self {
            Kind::Shared4 | Kind::Paced4 => 45,
            Kind::Solo | Kind::JoinChurn => 0,
        }
    }

    /// Lockstep rounds of all residents before the measured window opens:
    /// bootstrap, the first keyframes and (4 clients) every initial merge
    /// land here.
    pub fn warmup_rounds(self) -> usize {
        match self {
            Kind::Solo => 10,
            Kind::Shared4 | Kind::Paced4 => 20,
            Kind::JoinChurn => 60,
        }
    }

    /// Measured round after which `map_bytes` is read on the closed-loop
    /// workloads. A fixed round, not the end of the window, so the value
    /// does not depend on how many frames the host got through.
    pub fn checkpoint_round(self) -> usize {
        match self {
            Kind::Solo => 150,
            Kind::Shared4 => 50,
            Kind::Paced4 => usize::MAX,
            Kind::JoinChurn => 100,
        }
    }

    /// Frames rendered per resident client (the first also gets its head
    /// start).
    fn pool(self, seconds: f64) -> usize {
        let measured = match self {
            Kind::Solo => 31.0 * seconds,
            Kind::Shared4 => 8.5 * seconds,
            Kind::Paced4 => PACED_FPS * seconds + 2.0,
            Kind::JoinChurn => 16.0 * seconds,
        };
        let floor = match self {
            Kind::Paced4 => 0,
            _ => self.checkpoint_round() + 1,
        };
        self.warmup_rounds() + (measured as usize).max(floor)
    }
}

/// One camera's pre-rendered stereo stream and its ground truth.
pub struct Track {
    pub ds: Dataset,
    /// Dataset index of this track's frame 0.
    pub first: usize,
    pub frames: Vec<(GrayImage, GrayImage)>,
}

impl Track {
    /// Trace time of local frame `i`: 30 fps whatever the wall pacing.
    pub fn timestamp(&self, i: usize) -> f64 {
        self.ds.frame_time(self.first + i)
    }

    pub fn gt_position(&self, i: usize) -> Vec3 {
        self.ds.gt_position(self.first + i)
    }
}

/// Which joiner stream a join replays, and from which of its frames.
pub struct JoinPlan {
    pub track: usize,
    pub start: usize,
}

pub struct Inputs {
    /// Clients registered in set-up, ids 1, 2, ...
    pub tracks: Vec<Track>,
    /// `join_churn`: the streams joiners replay segments of.
    pub joiner_tracks: Vec<Track>,
    pub joins: Vec<JoinPlan>,
    /// `paced4`: when each client's open-loop frames are due, in send
    /// periods after the window opens. Clients sit a quarter period apart
    /// and every frame has its own capture jitter of up to an eighth of a
    /// period, so each run meets the same mix of gaps between arrivals.
    pub due_periods: Vec<Vec<f64>>,
}

/// Build the inputs of one run. The server sees only what comes out of
/// here: rendered frames, their timestamps, and the join schedule.
pub fn generate(kind: Kind, seed: u64, seconds: f64) -> Inputs {
    let mut rng = Rng::new(seed);
    let pool = kind.pool(seconds);
    // (preset, first frame): everyone flies the shared machine hall, the
    // second pair starting 40 frames further along the same two loops.
    let residents: &[(TracePreset, usize)] = match kind {
        Kind::Solo | Kind::JoinChurn => &[(TracePreset::MH04, 0)],
        Kind::Shared4 | Kind::Paced4 => &[
            (TracePreset::MH04, 0),
            (TracePreset::MH05, 0),
            (TracePreset::MH04, 40),
            (TracePreset::MH05, 40),
        ],
    };
    let track = |preset, first, len, noise_seed| Track {
        ds: Dataset::build(
            DatasetConfig::new(preset)
                .with_frames(first + len)
                .with_seed(noise_seed),
        ),
        first,
        frames: Vec::new(),
    };
    let mut tracks: Vec<Track> = residents
        .iter()
        .enumerate()
        .map(|(k, &(preset, first))| {
            let head_start = if k == 0 { kind.head_start_rounds() } else { 0 };
            track(preset, first, pool + head_start, seed * 31 + k as u64 + 1)
        })
        .collect();

    // Joiners replay ground the resident covered in warm-up, so the
    // streams are as long as the warm-up and every segment fits in one.
    let joiner_len = Kind::JoinChurn.warmup_rounds();
    let mut joiner_tracks: Vec<Track> = Vec::new();
    let mut joins = Vec::new();
    if kind == Kind::JoinChurn {
        for (k, preset) in [TracePreset::MH04, TracePreset::MH05]
            .into_iter()
            .enumerate()
        {
            joiner_tracks.push(track(preset, 0, joiner_len, seed * 31 + 17 + k as u64));
        }
        for _ in 0..256 {
            joins.push(JoinPlan {
                track: rng.below(joiner_tracks.len()),
                start: rng.below(joiner_len - JOIN_SEGMENT + 1),
            });
        }
    }
    let due_periods = (0..tracks.len())
        .map(|k| {
            (0..pool)
                .map(|i| k as f64 / tracks.len() as f64 + i as f64 + rng.unit() / 8.0)
                .collect()
        })
        .collect();

    render(tracks.iter_mut().chain(joiner_tracks.iter_mut()).collect());
    Inputs {
        tracks,
        joiner_tracks,
        joins,
        due_periods,
    }
}

/// Render every track's frames on all cores (this is input generation,
/// before any clock the benchmark reports starts).
fn render(mut tracks: Vec<&mut Track>) {
    let jobs: Vec<(usize, usize)> = tracks
        .iter()
        .enumerate()
        .flat_map(|(t, track)| (0..track.ds.frame_count() - track.first).map(move |i| (t, i)))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = jobs.len().div_ceil(workers).max(1);
    let rendered: Vec<Vec<(GrayImage, GrayImage)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                let tracks = &tracks;
                scope.spawn(move || {
                    part.iter()
                        .map(|&(t, i)| tracks[t].ds.render_stereo_frame(tracks[t].first + i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("render thread panicked"))
            .collect()
    });
    for ((t, _), frame) in jobs.iter().zip(rendered.into_iter().flatten()) {
        tracks[*t].frames.push(frame);
    }
}
