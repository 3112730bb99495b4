//! Golden bytes for the sketch formats: checksummed `SFM2`/`SFK2` and the
//! legacy trailer-less `SFMH`/`SFKM`. Each test encodes a tiny fixed
//! sketch and asserts every byte, so a change to a layout, a field order
//! or the checksum shows up here.

use sfa_minhash::persist::{
    decode_bottom_k, decode_signatures, encode_bottom_k, encode_signatures, write_bottom_k_v1,
    write_signatures_v1,
};
use sfa_minhash::{BottomKSignatures, SignatureMatrix};

/// A `2 × 3` signature matrix; the last value is the empty-column sentinel.
fn signatures() -> SignatureMatrix {
    SignatureMatrix::from_values(2, 3, vec![1, 2, 3, 0x0102_0304_0506_0708, 5, u64::MAX])
}

/// Three bottom-3 sketches: a full one, an empty column, a short one.
fn bottom_k() -> BottomKSignatures {
    BottomKSignatures::from_parts(3, vec![vec![5, 9, 12], vec![], vec![7]], vec![4, 0, 1])
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sfa-golden-sketch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The `SFM2`/`SFMH` body: `k`, `m`, then the values row-major.
const MH_BODY: &str = concat!(
    "02000000",         // k = 2
    "03000000",         // m = 3
    "0100000000000000", // row 0
    "0200000000000000",
    "0300000000000000",
    "0807060504030201", // row 1
    "0500000000000000",
    "ffffffffffffffff",
);

/// The `SFK2`/`SFKM` body: `k`, `m`, then per column count, len, values.
const KMH_BODY: &str = concat!(
    "03000000", // k = 3
    "03000000", // m = 3
    "04000000", // column 0: count 4
    "03000000", // len 3
    "0500000000000000",
    "0900000000000000",
    "0c00000000000000",
    "00000000", // column 1: count 0
    "00000000", // len 0
    "01000000", // column 2: count 1
    "01000000", // len 1
    "0700000000000000",
);

#[test]
fn sfm2_bytes() {
    let bytes = encode_signatures(&signatures());
    assert_eq!(
        hex(&bytes),
        format!("{}{MH_BODY}{}", hex(b"SFM2"), "ba297129")
    );
    assert_eq!(decode_signatures(&bytes).unwrap(), signatures());
}

#[test]
fn sfk2_bytes() {
    let bytes = encode_bottom_k(&bottom_k());
    assert_eq!(
        hex(&bytes),
        format!("{}{KMH_BODY}{}", hex(b"SFK2"), "de7b70c4")
    );
    assert_eq!(decode_bottom_k(&bytes).unwrap(), bottom_k());
}

#[test]
fn sfmh_v1_bytes() {
    let p = tmp("golden.sfmh");
    write_signatures_v1(&signatures(), &p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    assert_eq!(hex(&bytes), format!("{}{MH_BODY}", hex(b"SFMH")));
    assert_eq!(decode_signatures(&bytes).unwrap(), signatures());
    std::fs::remove_file(&p).ok();
}

#[test]
fn sfkm_v1_bytes() {
    let p = tmp("golden.sfkm");
    write_bottom_k_v1(&bottom_k(), &p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    assert_eq!(hex(&bytes), format!("{}{KMH_BODY}", hex(b"SFKM")));
    assert_eq!(decode_bottom_k(&bytes).unwrap(), bottom_k());
    std::fs::remove_file(&p).ok();
}
