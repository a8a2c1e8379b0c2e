//! Byte-layout pins for the three stored formats: one fixed checkpoint
//! (`FDC1`), its frame (`FDS1`) and a 3-shard manifest (`FDM1`), each
//! compared against a hex literal. The codec and store suites only
//! round-trip, so a layout drift that stays self-consistent would pass
//! them; these literals would not.

use fleetd::codec;
use fleetd::store::{self, Manifest};
use stream::{FillCheckpoint, WindowCheckpoint};
use timeseries::Summary;

const CHECKPOINT_HEX: &str = concat!(
    "46444331030000000000087b401e00000000000000030000000000000000105e",
    "40000000000000000000000000004e9d40020000000000000000000000000000",
    "0000c06240000000000000294000000000000044400000000000406040000000",
    "00004065400f0000000000000000000000008b9340000000000020ac40000000",
    "0000a48e400000000000a079400000000000ba9540",
);
/// The 28-byte frame header; the payload that follows is [`CHECKPOINT_HEX`].
const FRAME_HEADER_HEX: &str = "46445331d2040000000000000500000000000000950000007e725f26";
const MANIFEST_HEX: &str = concat!(
    "46444d31e8030000000000000300000000000000080000000000000007000000",
    "0000000003000000242700000000000006270000000000000627000000000000",
    "8aca9edd",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn checkpoint() -> WindowCheckpoint {
    WindowCheckpoint {
        fill: FillCheckpoint::HoldLast(432.5),
        next_start: 30,
        open: vec![120.25, 0.0, 1_875.5],
        closed: vec![
            (
                0,
                Summary {
                    mean: 150.0,
                    variance: 12.5,
                    range: 40.0,
                    min: 130.0,
                    max: 170.0,
                },
            ),
            (
                15,
                Summary {
                    mean: 1_250.75,
                    variance: 3_600.0,
                    range: 980.5,
                    min: 410.0,
                    max: 1_390.5,
                },
            ),
        ],
    }
}

#[test]
fn checkpoint_layout_is_pinned() {
    assert_eq!(hex(&codec::encode(&checkpoint())), CHECKPOINT_HEX);
}

#[test]
fn frame_layout_is_pinned() {
    let frame = store::encode_frame(1_234, 5, &codec::encode(&checkpoint()));
    assert_eq!(hex(&frame), format!("{FRAME_HEADER_HEX}{CHECKPOINT_HEX}"));
}

#[test]
fn manifest_layout_is_pinned() {
    let manifest = Manifest {
        homes: 1_000,
        shards: 3,
        rounds: 8,
        root_seed: 7,
        shard_samples: vec![10_020, 9_990, 9_990],
    };
    assert_eq!(hex(&manifest.encode()), MANIFEST_HEX);
}
