//! Number text for the JSON writer: integers through a digit-pair
//! table, and `f64` through a shortest round-trip formatter after Adams,
//! *Ryū: Fast Float-to-String Conversion* (PLDI 2018).
//!
//! The `f64` text is byte-identical to Rust's `{x:?}`: the shortest
//! digits that parse back to the same bits, the closest such digits to
//! the exact value (an exact tie rounds up, as `core`'s formatter does,
//! where the paper rounds to even), in decimal form with at least one
//! fractional digit for `1e-4 <= |x| < 1e16` and as `d.ddde±N` (no `+`)
//! outside it.

use std::sync::OnceLock;

/// `"00" "01" … "99"`, two ASCII digits per entry.
const DIGIT_PAIRS: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut out = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        out[2 * i] = b'0' + (i / 10) as u8;
        out[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    out
}

/// Writes `v`'s decimal digits right-aligned into `buf` (which must be
/// long enough); returns the index of the first digit.
fn digits(mut v: u64, buf: &mut [u8]) -> usize {
    let mut pos = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    pos
}

/// Appends `v` in decimal.
pub(super) fn write_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits(v, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Appends `v` in decimal, with a leading `-` when negative.
pub(super) fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends `x` under the codec's number policy. Strict JSON has no
/// NaN/inf, so non-finite values are `null` (scores are always finite;
/// this only guards a caller's mistake). Integral values below 2^53 in
/// magnitude print as an `i64` (so `-0.0` prints `0`); every other value
/// prints exactly as `{x:?}`, which parses back to the same bits.
pub(super) fn write_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        out.extend_from_slice(b"null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        write_i64(out, x as i64);
    } else {
        write_shortest(out, x);
    }
}

/// Appends `x` exactly as `{x:?}`, for every `f64`: zeros keep their
/// sign and `.0`, and non-finite values print `NaN`, `inf` or `-inf`.
pub(super) fn write_debug_f64(out: &mut Vec<u8>, x: f64) {
    let text: &[u8] = match x {
        _ if x.is_nan() => b"NaN",
        f64::INFINITY => b"inf",
        f64::NEG_INFINITY => b"-inf",
        0.0 if x.is_sign_negative() => b"-0.0",
        0.0 => b"0.0",
        _ => return write_shortest(out, x),
    };
    out.extend_from_slice(text);
}

/// `{x:?}` for a finite, non-zero `x`.
fn write_shortest(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let (mantissa, exp10) = shortest(
        bits & ((1 << MANTISSA_BITS) - 1),
        (bits >> MANTISSA_BITS) as u32 & 0x7ff,
    );
    let mut buf = [0u8; 20];
    let start = digits(mantissa, &mut buf);
    let digits = &buf[start..];
    let n = digits.len() as i32;
    // x = 0.d1d2…dn × 10^point.
    let point = n + exp10;
    if (1e-4..1e16).contains(&x.abs()) {
        if point <= 0 {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + (-point) as usize, b'0');
            out.extend_from_slice(digits);
        } else if point < n {
            let (int, frac) = digits.split_at(point as usize);
            out.extend_from_slice(int);
            out.push(b'.');
            out.extend_from_slice(frac);
        } else {
            out.extend_from_slice(digits);
            out.resize(out.len() + (point - n) as usize, b'0');
            out.extend_from_slice(b".0");
        }
    } else {
        out.push(digits[0]);
        if n > 1 {
            out.push(b'.');
            out.extend_from_slice(&digits[1..]);
        }
        out.push(b'e');
        write_i64(out, (point - 1) as i64);
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each power of five (and of each inverse).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Table lengths: every power the exponent range of `f64` can ask for.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

/// `5^i`, scaled to exactly [`POW5_BITCOUNT`] bits, and
/// `floor(2^(bits(5^i) - 1 + POW5_INV_BITCOUNT) / 5^i) + 1`.
struct Tables {
    pow5: Vec<u128>,
    pow5_inv: Vec<u128>,
}

/// The power-of-five tables, computed on first use with exact
/// big-integer arithmetic.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut pow = vec![1u32]; // 5^i, little-endian u32 limbs
        let mut pow5 = Vec::with_capacity(POW5_INV_TABLE_SIZE);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_TABLE_SIZE);
        for i in 0..POW5_INV_TABLE_SIZE {
            let bits = big::bit_len(&pow);
            debug_assert_eq!(bits as i32, pow5bits(i as i32));
            if i < POW5_TABLE_SIZE {
                pow5.push(if bits >= POW5_BITCOUNT as u32 {
                    big::shr_u128(&pow, bits - POW5_BITCOUNT as u32)
                } else {
                    big::shr_u128(&pow, 0) << (POW5_BITCOUNT as u32 - bits)
                });
            }
            // floor(floor(a / b) / c) = floor(a / (b·c)): divide the power
            // of two by 5 a chunk at a time.
            let mut quotient = big::pow2(bits - 1 + POW5_INV_BITCOUNT as u32);
            let mut left = i as u32;
            while left > 0 {
                let k = left.min(13); // 5^13 < 2^32
                big::div_small(&mut quotient, 5u32.pow(k));
                left -= k;
            }
            pow5_inv.push(big::shr_u128(&quotient, 0) + 1);
            big::mul_small(&mut pow, 5);
        }
        Tables { pow5, pow5_inv }
    })
}

/// Just enough unsigned big-integer arithmetic to build [`Tables`].
mod big {
    /// `2^e`.
    pub fn pow2(e: u32) -> Vec<u32> {
        let mut limbs = vec![0u32; e as usize / 32 + 1];
        limbs[e as usize / 32] = 1 << (e % 32);
        limbs
    }

    pub fn mul_small(n: &mut Vec<u32>, m: u32) {
        let mut carry = 0u64;
        for limb in n.iter_mut() {
            let p = *limb as u64 * m as u64 + carry;
            *limb = p as u32;
            carry = p >> 32;
        }
        if carry > 0 {
            n.push(carry as u32);
        }
    }

    /// `n = floor(n / d)`.
    pub fn div_small(n: &mut Vec<u32>, d: u32) {
        let mut rem = 0u64;
        for limb in n.iter_mut().rev() {
            let cur = (rem << 32) | *limb as u64;
            *limb = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        while n.last() == Some(&0) {
            n.pop();
        }
    }

    pub fn bit_len(n: &[u32]) -> u32 {
        n.last().map_or(0, |&top| {
            (n.len() as u32 - 1) * 32 + (32 - top.leading_zeros())
        })
    }

    /// `n >> shift`, which must fit in 128 bits.
    pub fn shr_u128(n: &[u32], shift: u32) -> u128 {
        debug_assert!(bit_len(n) <= shift + 128);
        let mut out = 0u128;
        for (k, &limb) in n.iter().enumerate() {
            let pos = k as u32 * 32;
            if pos >= shift {
                out |= (limb as u128) << (pos - shift);
            } else if pos + 32 > shift {
                out |= (limb >> (shift - pos)) as u128;
            }
        }
        out
    }
}

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e == 0`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(m · mul) >> j` for a 128-bit multiplier and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exp10)` with `digits · 10^exp10`
/// parsing back to the non-zero `f64` with these raw mantissa and
/// exponent fields; among the shortest, the closest to the exact value,
/// an exact tie rounding up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing includes the interval's ends when the
    // mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    // The interval [mm, mp] around mv = 4·m2 of values that parse back
    // to x; it is asymmetric at a power of two.
    let mv = 4 * m2;
    let mm_shift = (ieee_mantissa != 0 || ieee_exponent <= 1) as u64;
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    let tables = tables();
    let (mut vr, mut vp, mut vm, e10);
    // Whether mm·10^-e10 is an integer — the interval's low end is then an
    // exact decimal and a candidate when bounds are accepted. (The paper
    // also tracks whether vr is exact, to round an exact tie to even;
    // ties here round up, so that flag has no use.)
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - (e2 > 3) as u32;
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = (-e2 + q as i32 + k) as u32;
        let mul = tables.pow5_inv[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 21 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                // An exact high end is excluded.
                vp -= multiple_of_pow5(mp, q) as u64;
            }
        }
    } else {
        let q = log10_pow5(-e2) - (-e2 > 1) as u32;
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = (q as i32 - k) as u32;
        let mul = tables.pow5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mp = mv + 2 has a trailing zero bit; mm has one iff
            // mm_shift == 1.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate,
    // then round what is left to the closest (an exact tie, …50…0,
    // rounds up).
    let mut removed = 0i32;
    let mut last_removed = 0u64;
    if vp / 100 > vm / 100 && !vm_is_trailing_zeros {
        last_removed = if vr % 100 >= 50 { 5 } else { 0 };
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The exact low end is a candidate: drop its trailing zeros too.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // vr == vm with the low end excluded (or inexact) must round up.
    let output = vr + ((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5) as u64;
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ours(x: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    /// What the codec promised before this formatter existed.
    fn reference(x: f64) -> String {
        if !x.is_finite() {
            "null".into()
        } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            format!("{}", x as i64)
        } else {
            format!("{x:?}")
        }
    }

    fn debug_text(x: f64) -> String {
        let mut out = Vec::new();
        write_debug_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn check(x: f64) {
        assert_eq!(ours(x), reference(x), "bits {:#018x}", x.to_bits());
        assert_eq!(
            debug_text(x),
            format!("{x:?}"),
            "bits {:#018x}",
            x.to_bits()
        );
    }

    /// A SplitMix64 stream.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Values where a formatter slips: subnormals and the extremes, the
    /// decimal/exponent switch points and their neighbours, every power
    /// of ten and of two with its neighbours, 2^53 ± 1, exact ties,
    /// accumulated rounding error, and all of them negated.
    fn edge_table() -> Vec<f64> {
        let mut v = vec![
            5e-324,
            1e-323,
            f64::MIN_POSITIVE,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MAX,
            1e-4,
            1e16,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            0.1 + 0.2,
            1.0 / 3.0,
            0.85,
            1e15 + 0.25,
            1e15 + 0.75,
            1e15 + 1.25,
            123_456_789_012_345_680.0,
        ];
        for e in -324..=308 {
            v.push(format!("1e{e}").parse().unwrap());
        }
        for e in -1074..=1023i32 {
            v.push(f64::from_bits(if e < -1022 {
                1 << (e + 1074)
            } else {
                ((e + 1023) as u64) << MANTISSA_BITS
            }));
        }
        let mut with_neighbours = Vec::new();
        for x in v {
            let bits = x.to_bits();
            for b in [bits.wrapping_sub(1), bits, bits + 1] {
                let y = f64::from_bits(b);
                if y.is_finite() && y > 0.0 {
                    with_neighbours.extend([y, -y]);
                }
            }
        }
        with_neighbours
    }

    /// Draws from three families: raw bit patterns, mantissas with a run
    /// of trailing zero bits (short exact decimals and ties), and short
    /// decimals `d·10^e` parsed from text.
    fn sweep(samples: u64, seed: u64) {
        let mut rng = Bits(seed);
        for i in 0..samples {
            let r = rng.next();
            let x = match i % 3 {
                0 => f64::from_bits(r),
                1 => {
                    let zeros = (rng.next() % 53) as u32;
                    f64::from_bits(r & !((1u64 << zeros) - 1))
                }
                _ => {
                    let digits = rng.next() % 10u64.pow(1 + (r % 17) as u32);
                    let exp = (rng.next() % 640) as i32 - 330;
                    let text = format!("{}{digits}e{exp}", if r >> 63 == 0 { "" } else { "-" });
                    text.parse().unwrap()
                }
            };
            check(x);
        }
    }

    #[test]
    fn integers_use_digit_pairs() {
        for v in [
            0u64,
            7,
            10,
            99,
            100,
            101,
            999,
            1000,
            65_535,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            let mut out = Vec::new();
            write_i64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn tables_start_where_the_paper_does() {
        let t = tables();
        assert_eq!(t.pow5[0], 1 << 124);
        assert_eq!(t.pow5[1], 5 << 122);
        assert_eq!(t.pow5_inv[0], (1 << 125) + 1);
        assert_eq!(t.pow5_inv[1], (1u128 << 127) / 5 + 1);
        assert_eq!(
            (t.pow5.len(), t.pow5_inv.len()),
            (POW5_TABLE_SIZE, POW5_INV_TABLE_SIZE)
        );
    }

    #[test]
    fn non_finite_and_integers_keep_their_policy() {
        assert_eq!(ours(f64::NAN), "null");
        assert_eq!(ours(f64::NEG_INFINITY), "null");
        assert_eq!(ours(-0.0), "0");
        assert_eq!(ours(42.0), "42");
        assert_eq!(ours(9_007_199_254_740_992.0), "9007199254740992.0");
        assert_eq!(ours(1e16), "1e16");
        assert_eq!(ours(1e15 + 0.25), "1000000000000000.3");
        assert_eq!(ours(1.5e-5), "1.5e-5");
    }

    #[test]
    fn debug_text_covers_zeros_integers_and_non_finite_values() {
        for x in [
            0.0,
            -0.0,
            12.0,
            -3.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(debug_text(x), format!("{x:?}"));
        }
    }

    #[test]
    fn edge_table_matches_debug_formatting() {
        for x in edge_table() {
            check(x);
        }
    }

    #[test]
    fn sampled_floats_match_debug_formatting() {
        sweep(100_000, 1);
    }

    /// The full sweep: 10^8 samples on four threads (release mode: about
    /// 80 s on two cores). CI runs it with `--ignored`.
    #[test]
    #[ignore]
    fn swept_floats_match_debug_formatting() {
        let threads = 4u64;
        let per_thread = 100_000_000 / threads;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || sweep(per_thread, 0xD1CE + t));
            }
        });
        for x in edge_table() {
            check(x);
        }
    }
}
