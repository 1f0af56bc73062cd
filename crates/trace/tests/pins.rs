//! Byte pins of the trace generators and of everything read off a trace.
//!
//! Each case generates a 2-ms trace (seed 42) and digests, with
//! FNV-1a-64, its binary and text serialisations and the `Debug` output
//! of its statistics and popularity CDF. The digests were recorded with
//! traces stored as one 40-byte record per event; any change of the
//! in-memory layout must leave every one of them unchanged.

use dma_trace::{OltpDbGen, OltpStGen, SyntheticDbGen, SyntheticStorageGen, TpchScanGen, TraceGen};
use simcore::SimDuration;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(binary, text, stats, popularity)` digests of `gen`'s 2-ms trace.
fn digests(gen: &dyn TraceGen) -> [u64; 4] {
    let t = gen.generate(SimDuration::from_ms(2), 42);
    let mut bin = Vec::new();
    t.write_binary(&mut bin).unwrap();
    let mut text = Vec::new();
    t.write_text(&mut text).unwrap();
    [
        fnv1a64(&bin),
        fnv1a64(&text),
        fnv1a64(format!("{:?}", t.stats()).as_bytes()),
        fnv1a64(format!("{:?}", t.popularity_cdf()).as_bytes()),
    ]
}

fn check(gen: &dyn TraceGen, want: [u64; 4]) {
    let got = digests(gen);
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "{}: [binary, text, stats, popularity] digests moved",
        gen.name()
    );
}

#[test]
fn oltp_st_is_pinned() {
    check(
        &OltpStGen::default(),
        [
            0x4724_c6ca_c9d8_40ba,
            0x8001_f66a_6472_351b,
            0x36cc_c8a3_26d4_02f5,
            0x7cbd_bd46_0692_d38a,
        ],
    );
}

#[test]
fn synthetic_st_is_pinned() {
    check(
        &SyntheticStorageGen::default(),
        [
            0x8353_e6bc_5251_4d02,
            0x8a47_d822_b577_bac6,
            0xdfaa_cc74_b22d_2357,
            0xd358_47a6_b39e_cde0,
        ],
    );
}

#[test]
fn oltp_db_is_pinned() {
    check(
        &OltpDbGen::default(),
        [
            0x3b13_af6c_5051_d5b5,
            0x8a34_f4c5_49c4_1ab1,
            0x4121_cf50_6959_3893,
            0x09b2_e907_b54a_99bf,
        ],
    );
}

#[test]
fn synthetic_db_is_pinned() {
    check(
        &SyntheticDbGen::default(),
        [
            0xc03c_2056_0daa_3503,
            0x83c7_8ef6_c6b7_4d03,
            0xe410_e85a_ba1b_a68c,
            0x96a5_c54f_70c2_3822,
        ],
    );
}

/// Figure 9's heaviest point: 500 processor accesses per transfer.
#[test]
fn synthetic_db_500_per_transfer_is_pinned() {
    check(
        &SyntheticDbGen::default().with_proc_per_transfer(500.0),
        [
            0x4a0e_c954_7579_17d2,
            0x4c9b_32a1_58e7_5cd3,
            0x30c1_4839_8c57_d745,
            0x96a5_c54f_70c2_3822,
        ],
    );
}

#[test]
fn tpch_scan_is_pinned() {
    check(
        &TpchScanGen::default(),
        [
            0x6a51_9765_1649_0b3c,
            0xd3f2_0bfa_fcf6_1943,
            0xc0d6_0dca_651f_c8ee,
            0xc33f_b5f5_126b_4383,
        ],
    );
}
