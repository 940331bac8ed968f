//! Golden digests of the fast VSA kernels.
//!
//! The FFT and the codebook scan may change how they lay out and order
//! their work, but not one bit of what they return. Each case folds the
//! bit patterns of a kernel's outputs into one FNV-1a digest, so a
//! flipped sign on a zero fails as loudly as a wrong value:
//!
//! - [`fft::bind_fast`] and [`fft::unbind_fast`] at every radix-2 block
//!   length from 8 to 4096, on seeded uniform operands and on their
//!   INT4 fake-quantized copies (whose exact zeros make signed zeros
//!   count);
//! - [`SpectralCodebook::similarities`] on the same books, with an
//!   all-zero query and an all-zero codeword among the cases.

use nsflow_tensor::quant::QuantParams;
use nsflow_tensor::rng::StdRng;
use nsflow_tensor::DType;
use nsflow_vsa::engine::SpectralCodebook;
use nsflow_vsa::{fft, BlockCode, Codebook};

/// 64-bit FNV-1a over the bit patterns of `f32` values.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Blocks per operand.
const BLOCKS: usize = 2;

/// Codewords per pinned codebook.
const CODEWORDS: usize = 4;

/// The radix-2 block lengths the fast path serves, 8 through 4096.
fn block_lengths() -> impl Iterator<Item = usize> {
    (3..=12).map(|p| 1usize << p)
}

/// Fake-quantizes every block to INT4 with its own symmetric scale.
fn int4(mut code: BlockCode) -> BlockCode {
    let bd = code.block_dim();
    for block in code.data_mut().chunks_mut(bd) {
        let p = QuantParams::fit(block, DType::Int4).unwrap();
        for x in block.iter_mut() {
            *x = p.fake_quantize(*x);
        }
    }
    code
}

/// `CODEWORDS` seeded uniform codewords of `BLOCKS × bd`, INT4
/// fake-quantized when `quantized`.
fn codewords(bd: usize, quantized: bool) -> Vec<BlockCode> {
    let mut rng = StdRng::seed_from_u64(bd as u64);
    (0..CODEWORDS)
        .map(|_| {
            let data = (0..BLOCKS * bd)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let code = BlockCode::from_vec(BLOCKS, bd, data).unwrap();
            if quantized {
                int4(code)
            } else {
                code
            }
        })
        .collect()
}

/// Runs `case` on every (block length, quantized) pair and checks its
/// digest against `pinned`, in `block_lengths()` order with the plain
/// operands first.
fn check(pinned: &[u64; 20], case: impl Fn(&[BlockCode], &mut Fnv)) {
    let mut got = Vec::new();
    for bd in block_lengths() {
        for quantized in [false, true] {
            let mut h = Fnv::new();
            case(&codewords(bd, quantized), &mut h);
            got.push(h.0);
        }
    }
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, pinned, "digests now: [{}]", hex.join(", "));
}

#[test]
fn bind_fast_is_pinned() {
    check(&BIND_DIGESTS, |cws, h| {
        for pair in cws.windows(2) {
            h.f32s(fft::bind_fast(&pair[0], &pair[1]).unwrap().data());
        }
    });
}

#[test]
fn unbind_fast_is_pinned() {
    check(&UNBIND_DIGESTS, |cws, h| {
        for pair in cws.windows(2) {
            h.f32s(fft::unbind_fast(&pair[0], &pair[1]).unwrap().data());
        }
    });
}

#[test]
fn codebook_similarities_are_pinned() {
    check(&SIMILARITY_DIGESTS, |cws, h| {
        let mut book = cws.to_vec();
        // An all-zero codeword scores exactly 0 against every query.
        book[CODEWORDS - 1] = BlockCode::zeros(BLOCKS, cws[0].block_dim());
        let book = Codebook::from_codewords(book).unwrap();
        let engine = SpectralCodebook::new(book.clone());
        let bound = fft::bind_fast(&cws[0], &cws[1]).unwrap();
        let zero = BlockCode::zeros(BLOCKS, cws[0].block_dim());
        for query in [&cws[0], &cws[2], &cws[3], &bound, &zero] {
            let sims = engine.similarities(query).unwrap();
            let reference = book.similarities(query).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sims), bits(&reference));
            h.f32s(&sims);
        }
    });
}

const BIND_DIGESTS: [u64; 20] = [
    0x9518_43ac_e7b8_447c,
    0xec4a_325c_1f00_465d,
    0xda81_50d5_4b97_1061,
    0x961a_14ca_54ad_83fe,
    0x0de1_a1a9_2ef6_266a,
    0x8496_b61b_e8ff_fd03,
    0x894f_0fb8_03bd_a3a2,
    0xb881_e783_1c06_074e,
    0xc252_01e2_9e5d_c352,
    0x8443_682a_c68a_3ea5,
    0x6ecb_fb08_9f3f_2287,
    0xf517_4f6c_0927_1ef8,
    0xb5b1_224e_44d3_b487,
    0x05f4_43f3_ca8c_513f,
    0xa19a_418d_53e7_fb9f,
    0x27a5_4a30_a134_94a3,
    0xcd57_3b0f_7b64_2489,
    0x5e29_e9b6_2429_b0e4,
    0xde96_2c1e_60e2_d352,
    0x153d_de84_a6a9_4c36,
];

const UNBIND_DIGESTS: [u64; 20] = [
    0x5ca6_d6d4_6f03_c05c,
    0x9f1f_c0c9_60e4_1af3,
    0xe9a8_fb96_999d_03a9,
    0xe10d_520d_3c3a_6e83,
    0xb152_8d0e_82db_7b4e,
    0x6f86_e6ac_bad9_b0cc,
    0xfbe8_e9d4_5b48_9c92,
    0xd247_f917_60b2_60a5,
    0xb2ca_f2b7_fed4_b4f0,
    0x01d8_b382_37ee_d89b,
    0xf18b_0cf4_46cb_6393,
    0x9106_2f9f_9594_ecd0,
    0x6430_10c7_1d4d_e195,
    0x62ff_4684_f08c_0ae0,
    0xe512_592d_3434_deed,
    0xee5b_16e0_7c79_1af5,
    0x4ad7_e249_d9c2_b221,
    0xcf5d_5711_ff3f_f346,
    0xf639_7b0c_6574_928c,
    0x1803_5637_63ca_1025,
];

const SIMILARITY_DIGESTS: [u64; 20] = [
    0xa89c_2e82_451d_0000,
    0x9579_9fa3_4893_3153,
    0x2f2e_5d13_62fd_36df,
    0x12e1_4ae3_6acf_e73a,
    0xd582_48fe_1056_78ed,
    0x88b2_81cc_ea6c_d545,
    0x13e7_064e_329d_6291,
    0x5fce_5da6_0c25_7f3d,
    0x5132_bd43_1482_6321,
    0x6fcd_a343_c156_5695,
    0xc5d5_27f7_53f9_827e,
    0xa40f_1d91_fa97_46a4,
    0xe549_f0a8_edde_9557,
    0x2733_1c30_ffeb_0bf2,
    0xa394_130e_23d3_fcd9,
    0x3772_30db_55f5_01f0,
    0xda27_82a2_86af_d8b5,
    0x7c7b_a5af_bcd6_e274,
    0x7da8_f2c1_2210_c996,
    0x0de0_e649_2a67_5016,
];
