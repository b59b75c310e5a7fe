//! Golden bytes of every batch a sender ships.
//!
//! With a fixed family seed, fixed traffic and no tracing, the frames of
//! `Site::cut_epoch` / `Site::resync_frames` and `Relay::cut_upstream` /
//! `Relay::resync_upstream`, and the site's sealed checkpoints, are pinned
//! as `(crc32, length)` per blob. Any change to the wire or checkpoint
//! bytes shows up here: they are what `wire_bytes_per_epoch` and
//! `durable_bytes_per_epoch` measure, and old checkpoints must keep
//! restoring.

use bytes::Bytes;
use setstream_core::SketchFamily;
use setstream_distributed::wire::crc32;
use setstream_distributed::{Relay, Site};
use setstream_stream::{StreamId, Update};

fn family() -> SketchFamily {
    SketchFamily::builder()
        .copies(4)
        .levels(16)
        .second_level(4)
        .seed(42)
        .build()
}

/// `(crc32, length)` of a blob. Frames and sealed checkpoints end in a
/// CRC of their own body, and a CRC over `body | crc(body)` is the same
/// for every body of one length, so the trailer is left out.
fn pin(blob: &[u8]) -> (u32, usize) {
    (crc32(&blob[..blob.len() - 4]), blob.len())
}

fn pins(blobs: &[Bytes]) -> Vec<(u32, usize)> {
    blobs.iter().map(|b| pin(b)).collect()
}

fn observe(site: &mut Site, stream: u32, elements: std::ops::Range<u64>) {
    for e in elements {
        site.observe(&Update::insert(StreamId(stream), e, 1));
    }
}

/// Every blob the scenario ships, in order: for each site cut its frames
/// then its checkpoint, then the site resync, then each relay cut, then
/// the relay resync.
fn scenario() -> Vec<Vec<(u32, usize)>> {
    let fam = family();
    let mut site = Site::new(7, fam);
    let mut relay = Relay::new(1000, fam);
    let mut out = Vec::new();
    let ship = |site: &mut Site, relay: &mut Relay, out: &mut Vec<_>| {
        let cut = site.cut_epoch().unwrap();
        for frame in &cut.frames {
            relay.coordinator().ingest_frame_from(7, frame).unwrap();
        }
        out.push(pins(&cut.frames));
        out.push(vec![pin(&cut.checkpoint)]);
        out.push(pins(&relay.cut_upstream().unwrap()));
    };

    // Epoch 1: two fresh streams.
    observe(&mut site, 0, 0..40);
    observe(&mut site, 1, 100..130);
    ship(&mut site, &mut relay, &mut out);
    // Epoch 2: stream 1 changes and stream 2 appears; stream 0 idles.
    observe(&mut site, 1, 130..150);
    observe(&mut site, 2, 500..510);
    site.observe(&Update::delete(StreamId(1), 100, 1));
    ship(&mut site, &mut relay, &mut out);
    // Epoch 3: nothing changed anywhere.
    ship(&mut site, &mut relay, &mut out);

    // Uncut traffic must not leak into the resync.
    observe(&mut site, 0, 900..905);
    out.push(pins(&site.resync_frames().unwrap()));
    out.push(pins(&relay.resync_upstream().unwrap()));
    out
}

#[test]
fn sender_batches_and_checkpoints_keep_their_bytes() {
    let got = scenario();
    let want: &[&[(u32, usize)]] = &[
        // site cut 1: Hello, Delta s0, Delta s1, Commit
        &[
            (0x9c07cd9c, 57),
            (0x9c91d1c6, 4337),
            (0x253f8f6f, 4337),
            (0x606e7856, 29),
        ],
        // site checkpoint 1
        &[(0xdf105e55, 8699)],
        // relay cut 1
        &[
            (0x081ae23a, 57),
            (0x156ea910, 4337),
            (0xacc0f7b9, 4337),
            (0x9a451566, 29),
        ],
        // site cut 2: Hello, Delta s1, Delta s2, Commit
        &[
            (0x1288ca7f, 57),
            (0xb3824a8c, 4337),
            (0xd15f4e13, 4337),
            (0x17f0aaa6, 29),
        ],
        // site checkpoint 2
        &[(0x1885f964, 13011)],
        // relay cut 2
        &[
            (0x8695e5d9, 57),
            (0x3a7d325a, 4337),
            (0x58a036c5, 4337),
            (0xeddbc796, 29),
        ],
        // site cut 3: Hello, Commit
        &[(0xde22cae1, 57), (0x265c2e42, 29)],
        // site checkpoint 3
        &[(0xca869b32, 13011)],
        // relay cut 3
        &[(0x4a3fe547, 57), (0xdc774372, 29)],
        // site resync: Hello, Synopsis s0..s2, Commit
        &[
            (0xde22cae1, 57),
            (0xfb00db9b, 4325),
            (0xe34e42df, 4325),
            (0xffb5d5e2, 4325),
            (0x34e981ac, 29),
        ],
        // relay resync
        &[
            (0x4a3fe547, 57),
            (0x6db30f91, 4325),
            (0x75fd96d5, 4325),
            (0x690601e8, 4325),
            (0xcec2ec9c, 29),
        ],
    ];
    assert_eq!(got, want, "{got:x?}");
}
