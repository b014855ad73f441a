//! The Keccak state array and its plane-wise partitioning.

use crate::constants::{PLANE_LANES, STATE_BYTES, STATE_LANES};
use core::fmt;

/// One plane of the Keccak state: the five lanes sharing a `y` coordinate.
///
/// `Plane` is the unit of work of the paper's vectorization — one plane
/// occupies (a 5-element region of) one vector register, so the custom
/// instructions operate on whole planes at a time. `plane[x]` is lane
/// (x, y) for the plane's row `y`.
pub type Plane = [u64; PLANE_LANES];

/// The 1600-bit Keccak state, viewed as 25 lanes of 64 bits.
///
/// Lanes are addressed as `(x, y)` with `0 ≤ x, y < 5`, exactly as in the
/// paper's Algorithm 1: `x` is the position within a plane (the element
/// index in a vector register) and `y` selects the plane (the vector
/// register). Internally lanes are stored in FIPS-202 order, index
/// `x + 5 * y`, which is also the serialization order of the sponge.
///
/// # Example
///
/// ```
/// use krv_keccak::KeccakState;
///
/// let mut state = KeccakState::new();
/// state.set_lane(3, 1, 0xDEAD_BEEF);
/// assert_eq!(state.lane(3, 1), 0xDEAD_BEEF);
/// assert_eq!(state.plane(1)[3], 0xDEAD_BEEF);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KeccakState {
    lanes: [u64; STATE_LANES],
}

impl KeccakState {
    /// Creates an all-zero state.
    pub const fn new() -> Self {
        Self {
            lanes: [0; STATE_LANES],
        }
    }

    /// Creates a state from lanes in FIPS-202 order (`x + 5 * y`).
    pub const fn from_lanes(lanes: [u64; STATE_LANES]) -> Self {
        Self { lanes }
    }

    /// Returns the lanes in FIPS-202 order (`x + 5 * y`).
    pub const fn into_lanes(self) -> [u64; STATE_LANES] {
        self.lanes
    }

    /// Returns the lanes as a slice in FIPS-202 order.
    pub fn lanes(&self) -> &[u64; STATE_LANES] {
        &self.lanes
    }

    /// Returns lane (x, y).
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ 5` or `y ≥ 5`.
    #[inline]
    pub fn lane(&self, x: usize, y: usize) -> u64 {
        assert!(
            x < PLANE_LANES && y < PLANE_LANES,
            "lane index out of range"
        );
        self.lanes[x + PLANE_LANES * y]
    }

    /// Sets lane (x, y) to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ 5` or `y ≥ 5`.
    #[inline]
    pub fn set_lane(&mut self, x: usize, y: usize, value: u64) {
        assert!(
            x < PLANE_LANES && y < PLANE_LANES,
            "lane index out of range"
        );
        self.lanes[x + PLANE_LANES * y] = value;
    }

    /// XORs `value` into lane (x, y).
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ 5` or `y ≥ 5`.
    #[inline]
    pub fn xor_lane(&mut self, x: usize, y: usize, value: u64) {
        assert!(
            x < PLANE_LANES && y < PLANE_LANES,
            "lane index out of range"
        );
        self.lanes[x + PLANE_LANES * y] ^= value;
    }

    /// Returns plane `y` (the five lanes with that row coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ 5`.
    pub fn plane(&self, y: usize) -> Plane {
        assert!(y < PLANE_LANES, "plane index out of range");
        let mut plane = [0u64; PLANE_LANES];
        plane.copy_from_slice(&self.lanes[PLANE_LANES * y..PLANE_LANES * (y + 1)]);
        plane
    }

    /// Overwrites plane `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y ≥ 5`.
    pub fn set_plane(&mut self, y: usize, plane: Plane) {
        assert!(y < PLANE_LANES, "plane index out of range");
        self.lanes[PLANE_LANES * y..PLANE_LANES * (y + 1)].copy_from_slice(&plane);
    }

    /// Returns the five planes, `planes()[y][x]` = lane (x, y).
    pub fn planes(&self) -> [Plane; PLANE_LANES] {
        [
            self.plane(0),
            self.plane(1),
            self.plane(2),
            self.plane(3),
            self.plane(4),
        ]
    }

    /// Builds a state from five planes (`planes[y][x]` = lane (x, y)).
    pub fn from_planes(planes: [Plane; PLANE_LANES]) -> Self {
        let mut state = Self::new();
        for (y, plane) in planes.iter().enumerate() {
            state.set_plane(y, *plane);
        }
        state
    }

    /// Serializes the state to 200 bytes in FIPS-202 order: lanes in
    /// `x + 5 * y` order, each lane little-endian.
    pub fn to_bytes(&self) -> [u8; STATE_BYTES] {
        let mut bytes = [0u8; STATE_BYTES];
        for (i, lane) in self.lanes.iter().enumerate() {
            bytes[8 * i..8 * (i + 1)].copy_from_slice(&lane.to_le_bytes());
        }
        bytes
    }

    /// Deserializes a state from 200 bytes in FIPS-202 order.
    pub fn from_bytes(bytes: &[u8; STATE_BYTES]) -> Self {
        let mut lanes = [0u64; STATE_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[8 * i..8 * (i + 1)]);
            *lane = u64::from_le_bytes(chunk);
        }
        Self { lanes }
    }

    /// XORs up to 200 `bytes` into the front of the state, as the sponge
    /// absorbing phase does with one rate-sized block.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 200`.
    pub fn xor_bytes(&mut self, bytes: &[u8]) {
        self.xor_bytes_at(0, bytes);
    }

    /// XORs `bytes` into the state's serialization (FIPS-202 order)
    /// starting at byte `offset`, as the sponge does with a partial
    /// block. Whole lanes are XORed a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len() > 200`.
    pub fn xor_bytes_at(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset <= STATE_BYTES && bytes.len() <= STATE_BYTES - offset,
            "bytes run past the state"
        );
        let (mut lane, skip) = (offset / 8, offset % 8);
        let mut rest = bytes;
        if skip != 0 && !rest.is_empty() {
            let take = (8 - skip).min(rest.len());
            let mut word = [0u8; 8];
            word[skip..skip + take].copy_from_slice(&rest[..take]);
            self.lanes[lane] ^= u64::from_le_bytes(word);
            lane += 1;
            rest = &rest[take..];
        }
        let words = rest.chunks_exact(8);
        let tail = words.remainder();
        for (value, word) in self.lanes[lane..].iter_mut().zip(words) {
            *value ^= u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8"));
            lane += 1;
        }
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.lanes[lane] ^= u64::from_le_bytes(word);
        }
    }

    /// Copies `out.len()` bytes of the state's serialization (FIPS-202
    /// order) starting at byte `offset` into `out`, as the sponge
    /// squeezing phase does, without serializing the rest.
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len() > 200`.
    pub fn read_bytes_at(&self, offset: usize, out: &mut [u8]) {
        assert!(
            offset <= STATE_BYTES && out.len() <= STATE_BYTES - offset,
            "bytes run past the state"
        );
        let mut at = offset;
        for chunk in out.chunks_mut(8) {
            let len = chunk.len();
            let (lane, skip) = (at / 8, at % 8);
            let take = len.min(8 - skip);
            chunk[..take].copy_from_slice(&self.lanes[lane].to_le_bytes()[skip..skip + take]);
            if take < len {
                chunk[take..].copy_from_slice(&self.lanes[lane + 1].to_le_bytes()[..len - take]);
            }
            at += len;
        }
    }

    /// Copies the first `len` bytes of the state into a vector, as the
    /// sponge squeezing phase does.
    ///
    /// # Panics
    ///
    /// Panics if `len > 200`.
    pub fn extract_bytes(&self, len: usize) -> Vec<u8> {
        assert!(len <= STATE_BYTES, "cannot extract more than the state");
        let mut out = vec![0u8; len];
        self.read_bytes_at(0, &mut out);
        out
    }
}

impl From<[u64; STATE_LANES]> for KeccakState {
    fn from(lanes: [u64; STATE_LANES]) -> Self {
        Self::from_lanes(lanes)
    }
}

impl From<KeccakState> for [u64; STATE_LANES] {
    fn from(state: KeccakState) -> Self {
        state.into_lanes()
    }
}

impl AsRef<[u64; STATE_LANES]> for KeccakState {
    fn as_ref(&self) -> &[u64; STATE_LANES] {
        &self.lanes
    }
}

impl fmt::Debug for KeccakState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "KeccakState {{")?;
        for y in 0..PLANE_LANES {
            write!(f, "  y={y}:")?;
            for x in 0..PLANE_LANES {
                write!(f, " {:016X}", self.lane(x, y))?;
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for KeccakState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_state() -> KeccakState {
        let mut lanes = [0u64; STATE_LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = i as u64 * 0x0101_0101_0101_0101;
        }
        KeccakState::from_lanes(lanes)
    }

    #[test]
    fn lane_indexing_matches_flat_order() {
        let state = counting_state();
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(state.lane(x, y), (x + 5 * y) as u64 * 0x0101_0101_0101_0101);
            }
        }
    }

    #[test]
    fn planes_round_trip() {
        let state = counting_state();
        let rebuilt = KeccakState::from_planes(state.planes());
        assert_eq!(state, rebuilt);
    }

    #[test]
    fn bytes_round_trip() {
        let state = counting_state();
        let rebuilt = KeccakState::from_bytes(&state.to_bytes());
        assert_eq!(state, rebuilt);
    }

    #[test]
    fn byte_serialization_is_little_endian_lane_order() {
        let mut state = KeccakState::new();
        state.set_lane(1, 0, 0x1122_3344_5566_7788);
        let bytes = state.to_bytes();
        // Lane (1, 0) is the second lane: bytes 8..16, little-endian.
        assert_eq!(
            &bytes[8..16],
            &[0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn xor_bytes_affects_prefix_only() {
        let mut state = KeccakState::new();
        state.xor_bytes(&[0xFF; 9]);
        assert_eq!(state.lane(0, 0), u64::MAX);
        assert_eq!(state.lane(1, 0), 0xFF);
        assert_eq!(state.lane(2, 0), 0);
    }

    #[test]
    fn extract_bytes_prefix() {
        let state = counting_state();
        let bytes = state.extract_bytes(17);
        assert_eq!(bytes.len(), 17);
        assert_eq!(&bytes[..], &state.to_bytes()[..17]);
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn lane_bounds_checked() {
        let state = KeccakState::new();
        let _ = state.lane(5, 0);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", KeccakState::new()).is_empty());
    }
}
