//! Bench: Table 3 — video vs. image transfer, plus both codec kernels.

use bench::experiments::table3;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_features::GrayImage;
use slamshare_net::codec::{ImageCodec, VideoDecoder, VideoEncoder};

fn bench(c: &mut Criterion) {
    let result = table3::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("table3_video_vs_image", &result);

    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::MH05)
            .with_frames(2)
            .with_seed(5),
    );
    let f0 = ds.render_frame(0);
    let f1 = ds.render_frame(1);
    c.bench_function("table3/image_encode", |b| {
        b.iter(|| ImageCodec::encode(std::hint::black_box(&f0)))
    });
    // One encoder and one decoder for the whole run, with an I-frame
    // interval the timed loop never reaches: primed with the I-frame of
    // `f0`, each iteration then codes exactly one P-frame, `f1` and `f0`
    // in turn.
    c.bench_function("table3/video_pframe_encode", |b| {
        let mut enc = VideoEncoder::default();
        enc.iframe_interval = usize::MAX;
        enc.encode(&f0);
        let frames = [&f1, &f0];
        let mut k = 0;
        b.iter(|| {
            k += 1;
            enc.encode(std::hint::black_box(frames[k % 2]))
        })
    });
    c.bench_function("table3/video_stream_decode", |b| {
        let mut enc = VideoEncoder::default();
        enc.iframe_interval = usize::MAX;
        let i = enc.encode(&f0);
        let payloads = [enc.encode(&f1).data, enc.encode(&f0).data];
        let mut dec = VideoDecoder::new();
        let mut out = GrayImage::new(0, 0);
        dec.decode_into(&i.data, &mut out).unwrap();
        let mut k = 0;
        b.iter(|| {
            k += 1;
            dec.decode_into(std::hint::black_box(&payloads[k % 2]), &mut out)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
