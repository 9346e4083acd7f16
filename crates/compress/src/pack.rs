//! Bit-vector packing for wire formats and signature hashing.
//!
//! Scan stimulus, MISR signatures, and channel streams all travel as
//! `Vec<bool>` inside the toolkit but must cross process boundaries
//! (the serve framing protocol, checkpoint journals) as bytes. These
//! helpers define the one canonical packing — LSB-first within each
//! byte, zero-padded to the byte boundary — so every layer that hashes
//! or frames bits agrees on the encoding.

/// Packs `bits` LSB-first into bytes (bit `i` lands in byte `i / 8`,
/// position `i % 8`). The final byte is zero-padded.
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    packed_bytes(bits).collect()
}

/// The bytes of [`pack_bits`], one at a time and without allocating,
/// for writers that append them to a buffer of their own. Each byte
/// folds eight bits with shifts and ors, never a branch on a bit.
pub fn packed_bytes(bits: &[bool]) -> impl ExactSizeIterator<Item = u8> + '_ {
    bits.chunks(8).map(|byte| {
        byte.iter()
            .enumerate()
            .fold(0u8, |acc, (i, &b)| acc | (u8::from(b) << i))
    })
}

/// Unpacks `count` bits from `bytes`, inverting [`pack_bits`]. Returns
/// `None` when `bytes` is too short for `count` bits or padding bits
/// past `count` are set (a torn or corrupt encoding, never a panic).
pub fn unpack_bits(bytes: &[u8], count: usize) -> Option<Vec<bool>> {
    if bytes.len() != count.div_ceil(8) {
        return None;
    }
    // Reject set padding bits so every bit vector has one encoding.
    if !count.is_multiple_of(8) && bytes[count / 8] >> (count % 8) != 0 {
        return None;
    }
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &byte in bytes {
        bits.extend((0..8).map(|i| (byte >> i) & 1 != 0));
    }
    bits.truncate(count);
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time packing loop: the reference the production
    /// code must match byte for byte.
    fn pack_oracle(bits: &[bool]) -> Vec<u8> {
        let mut bytes = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        bytes
    }

    /// The bit-at-a-time unpacking loop, with its length and padding
    /// checks.
    fn unpack_oracle(bytes: &[u8], count: usize) -> Option<Vec<bool>> {
        if bytes.len() != count.div_ceil(8) {
            return None;
        }
        let mut bits = Vec::with_capacity(count);
        for i in 0..count {
            bits.push(bytes[i / 8] & (1 << (i % 8)) != 0);
        }
        if !count.is_multiple_of(8) && bytes[count / 8] >> (count % 8) != 0 {
            return None;
        }
        Some(bits)
    }

    /// SplitMix64, so every length gets the same bits on every run.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_bitwise_oracle_at_every_length() {
        let mut seed = 0x5EED;
        for len in 0..=256usize {
            for _ in 0..4 {
                let bits: Vec<bool> = (0..len).map(|_| splitmix(&mut seed) & 1 == 1).collect();
                let bytes = pack_bits(&bits);
                assert_eq!(bytes, pack_oracle(&bits), "pack, {len} bits");
                assert_eq!(unpack_bits(&bytes, len), unpack_oracle(&bytes, len));
                assert_eq!(unpack_bits(&bytes, len).as_deref(), Some(&bits[..]));
                // Arbitrary bytes, padding included: same verdict and
                // the same bits as the oracle.
                let noise: Vec<u8> = (0..bytes.len())
                    .map(|_| splitmix(&mut seed) as u8)
                    .collect();
                assert_eq!(unpack_bits(&noise, len), unpack_oracle(&noise, len));
            }
        }
    }

    #[test]
    fn every_set_padding_bit_and_wrong_length_is_rejected() {
        for len in 0..=256usize {
            let bytes = pack_bits(&vec![true; len]);
            if !len.is_multiple_of(8) {
                for pad in len % 8..8 {
                    let mut bad = bytes.clone();
                    *bad.last_mut().unwrap() |= 1 << pad;
                    assert_eq!(
                        unpack_bits(&bad, len),
                        None,
                        "{len} bits, padding bit {pad}"
                    );
                }
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(unpack_bits(&long, len), None, "{len} bits, one byte long");
            if let Some((_, short)) = bytes.split_last() {
                assert_eq!(unpack_bits(short, len), None, "{len} bits, one byte short");
            }
        }
    }

    #[test]
    fn roundtrip_all_lengths() {
        for len in 0..40usize {
            let bits: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let bytes = pack_bits(&bits);
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(unpack_bits(&bytes, len).as_deref(), Some(&bits[..]));
        }
    }

    #[test]
    fn rejects_bad_lengths_and_padding() {
        assert!(unpack_bits(&[0xFF], 4).is_none()); // padding bits set
        assert!(unpack_bits(&[0x0F], 4).is_some());
        assert!(unpack_bits(&[0x00], 9).is_none()); // too short
        assert!(unpack_bits(&[0x00, 0x00], 8).is_none()); // too long
        assert_eq!(unpack_bits(&[], 0).as_deref(), Some(&[][..]));
    }
}
