//! Memory and register-file layouts for parallel Keccak states
//! (paper Figures 5 and 6).
//!
//! The kernels load one *plane* (five lanes sharing a row) per vector
//! register, with `SN` states side by side: element `5·s + x` of register
//! `y` holds lane (x, y) of state `s`. Data memory mirrors that layout so
//! unit-stride loads fill whole registers:
//!
//! * **64-bit architecture** (Figure 5): plane `y` of all states occupies
//!   `EleNum` consecutive 64-bit words at `base + y · 8 · EleNum`.
//! * **32-bit architecture** (Figure 6): the least-significant lane
//!   halves live in one region and the most-significant halves in a
//!   second region, each organized like the 64-bit layout but with 32-bit
//!   words.

use krv_keccak::interleave::{join_lane, split_lane};
use krv_keccak::KeccakState;
use krv_vproc::{DataMemory, Trap};

/// Writes `states` into memory in the 64-bit layout of paper Figure 5.
///
/// `elenum` is the per-register element count; slots for states beyond
/// `states.len()` are zero-filled.
///
/// # Errors
///
/// Traps if the region `[base, base + 5·8·elenum)` exceeds the memory.
pub fn write_states_64(
    mem: &mut DataMemory,
    base: u32,
    elenum: usize,
    states: &[KeccakState],
) -> Result<(), Trap> {
    assert!(states.len() * 5 <= elenum, "too many states for EleNum");
    check_aligned_64(base, elenum)?;
    // One bounds check for the whole region, then plain copies: staging
    // runs once per hardware pass, so neither a check per plane nor a
    // heap image is affordable against the compiled kernel's pass time.
    let region = mem.region_mut(base, 40 * elenum)?;
    for y in 0..5 {
        let plane = &mut region[8 * y * elenum..][..8 * elenum];
        for (slot, lanes) in plane.chunks_exact_mut(40).enumerate() {
            let words = states.get(slot).map_or([0; 5], |s| s.plane(y));
            for (bytes, word) in lanes.chunks_exact_mut(8).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
        }
    }
    Ok(())
}

/// Traps, before any access, if the 64-bit layout's region `[base,
/// base + 5·8·elenum)` is misaligned, with the error
/// [`DataMemory::region`] raises for that region past the end.
fn check_aligned_64(base: u32, elenum: usize) -> Result<(), Trap> {
    if base.is_multiple_of(8) {
        Ok(())
    } else {
        Err(Trap::MemoryAccess {
            addr: base,
            size: (5 * 8 * elenum) as u32,
        })
    }
}

/// Reads `count` states back from the 64-bit layout.
///
/// # Errors
///
/// Traps if the region exceeds the memory.
pub fn read_states_64(
    mem: &DataMemory,
    base: u32,
    elenum: usize,
    count: usize,
) -> Result<Vec<KeccakState>, Trap> {
    let mut states = vec![KeccakState::new(); count];
    read_states_64_into(mem, base, elenum, &mut states)?;
    Ok(states)
}

/// Reads states back from the 64-bit layout directly into `out`
/// (the allocation-free form [`read_states_64`] wraps — the engine's
/// per-pass read-back uses this one).
///
/// # Errors
///
/// Traps if the region exceeds the memory.
pub fn read_states_64_into(
    mem: &DataMemory,
    base: u32,
    elenum: usize,
    out: &mut [KeccakState],
) -> Result<(), Trap> {
    assert!(out.len() * 5 <= elenum, "too many states for EleNum");
    check_aligned_64(base, elenum)?;
    let region = mem.region(base, 40 * elenum)?;
    for y in 0..5 {
        let plane = &region[8 * y * elenum..][..8 * elenum];
        for (state, lanes) in out.iter_mut().zip(plane.chunks_exact(40)) {
            let mut words = [0; 5];
            for (word, bytes) in words.iter_mut().zip(lanes.chunks_exact(8)) {
                *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            }
            state.set_plane(y, words);
        }
    }
    Ok(())
}

/// Writes `states` into memory in the 32-bit high/low-split layout of
/// paper Figure 6: low halves at `base_lo`, high halves at `base_hi`.
///
/// # Errors
///
/// Traps if either region exceeds the memory.
pub fn write_states_32(
    mem: &mut DataMemory,
    base_lo: u32,
    base_hi: u32,
    elenum: usize,
    states: &[KeccakState],
) -> Result<(), Trap> {
    assert!(states.len() * 5 <= elenum, "too many states for EleNum");
    for y in 0..5 {
        for slot in 0..elenum / 5 {
            for x in 0..5 {
                let lane = states.get(slot).map_or(0, |s| s.lane(x, y));
                let (lo, hi) = split_lane(lane);
                let offset = 4 * (y * elenum + 5 * slot + x) as u32;
                mem.write(base_lo + offset, 4, lo as u64)?;
                mem.write(base_hi + offset, 4, hi as u64)?;
            }
        }
    }
    Ok(())
}

/// Reads `count` states back from the 32-bit split layout.
///
/// # Errors
///
/// Traps if either region exceeds the memory.
pub fn read_states_32(
    mem: &DataMemory,
    base_lo: u32,
    base_hi: u32,
    elenum: usize,
    count: usize,
) -> Result<Vec<KeccakState>, Trap> {
    let mut states = vec![KeccakState::new(); count];
    read_states_32_into(mem, base_lo, base_hi, elenum, &mut states)?;
    Ok(states)
}

/// Reads states back from the 32-bit split layout directly into `out`
/// (the allocation-free form [`read_states_32`] wraps).
///
/// # Errors
///
/// Traps if either region exceeds the memory.
pub fn read_states_32_into(
    mem: &DataMemory,
    base_lo: u32,
    base_hi: u32,
    elenum: usize,
    out: &mut [KeccakState],
) -> Result<(), Trap> {
    assert!(out.len() * 5 <= elenum, "too many states for EleNum");
    for y in 0..5 {
        for (slot, state) in out.iter_mut().enumerate() {
            for x in 0..5 {
                let offset = 4 * (y * elenum + 5 * slot + x) as u32;
                let lo = mem.read(base_lo + offset, 4)? as u32;
                let hi = mem.read(base_hi + offset, 4)? as u32;
                state.set_lane(x, y, join_lane(lo, hi));
            }
        }
    }
    Ok(())
}

/// Renders the 64-bit register-file occupancy as ASCII art in the style
/// of paper Figure 5 (used by the `figures` binary).
pub fn render_layout_64(elenum: usize) -> String {
    let states = elenum / 5;
    let mut text = String::new();
    text.push_str(&format!(
        "64-bit layout: EleNum = {elenum}, {states} Keccak state(s)\n"
    ));
    for y in (0..5).rev() {
        text.push_str(&format!("v{y}: "));
        for slot in 0..states {
            for x in 0..5 {
                text.push_str(&format!("s{x}{y}.A{slot} "));
            }
            text.push('|');
        }
        text.push('\n');
    }
    text
}

/// Renders the 32-bit split layout in the style of paper Figure 6.
pub fn render_layout_32(elenum: usize) -> String {
    let states = elenum / 5;
    let mut text = String::new();
    text.push_str(&format!(
        "32-bit layout: EleNum = {elenum}, {states} Keccak state(s)\n"
    ));
    for (region, prefix) in [(16, "sh"), (0, "sl")] {
        for y in (0..5).rev() {
            text.push_str(&format!("v{:2}: ", region + y));
            for slot in 0..states {
                for x in 0..5 {
                    text.push_str(&format!("{prefix}{x}{y}.A{slot} "));
                }
                text.push('|');
            }
            text.push('\n');
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_states(n: usize) -> Vec<KeccakState> {
        (0..n)
            .map(|s| {
                let mut lanes = [0u64; 25];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = ((s as u64) << 32) | i as u64;
                }
                KeccakState::from_lanes(lanes)
            })
            .collect()
    }

    #[test]
    fn layout64_round_trip() {
        // At every SN from 1 to 8 and every state count up to it: each
        // lane lands where a per-lane read finds it, slots past the
        // states are zeroed over stale words, and the read-back returns
        // the states.
        for sn in 1..=8 {
            let elenum = 5 * sn;
            for count in 0..=sn {
                let mut mem = DataMemory::new(1 << 12);
                for addr in (0..1 << 12).step_by(8) {
                    mem.write(addr, 8, u64::MAX).unwrap();
                }
                let states = sample_states(count);
                write_states_64(&mut mem, 64, elenum, &states).unwrap();
                for y in 0..5 {
                    for slot in 0..sn {
                        for x in 0..5 {
                            let addr = 64 + 8 * (y * elenum + 5 * slot + x) as u32;
                            let lane = states.get(slot).map_or(0, |s| s.lane(x, y));
                            assert_eq!(
                                mem.read(addr, 8).unwrap(),
                                lane,
                                "SN = {sn}, {count} states, lane ({x}, {y}) of slot {slot}"
                            );
                        }
                    }
                }
                let back = read_states_64(&mem, 64, elenum, count).unwrap();
                assert_eq!(back, states, "SN = {sn}, {count} states");
            }
        }
    }

    #[test]
    fn layout64_traps_before_any_access() {
        // A misaligned base and a region one word past the end raise the
        // trap one access over the whole region would, and neither side
        // of the copy is touched.
        const LEN: u32 = 1 << 12;
        for sn in 1..=8 {
            let elenum = 5 * sn;
            let size = 40 * elenum as u32;
            for base in [4, LEN - size + 8] {
                let trap = Err(Trap::MemoryAccess { addr: base, size });
                let mut mem = DataMemory::new(LEN as usize);
                let written = write_states_64(&mut mem, base, elenum, &sample_states(sn));
                assert_eq!(written, trap, "SN = {sn}, base {base}");
                assert!(mem.region(0, LEN as usize).unwrap().iter().all(|&b| b == 0));
                let mut out = sample_states(sn);
                let read = read_states_64_into(&mem, base, elenum, &mut out);
                assert_eq!(read, trap, "SN = {sn}, base {base}");
                assert_eq!(out, sample_states(sn), "SN = {sn}, base {base}");
            }
        }
    }

    #[test]
    fn layout64_plane_major_order() {
        let mut mem = DataMemory::new(1 << 16);
        let states = sample_states(1);
        write_states_64(&mut mem, 0, 5, &states).unwrap();
        // First word is lane (0,0); word at plane-1 offset is lane (0,1).
        assert_eq!(mem.read(0, 8).unwrap(), states[0].lane(0, 0));
        assert_eq!(mem.read(8 * 5, 8).unwrap(), states[0].lane(0, 1));
        assert_eq!(mem.read(8 * 3, 8).unwrap(), states[0].lane(3, 0));
    }

    #[test]
    fn layout32_round_trip() {
        let mut mem = DataMemory::new(1 << 16);
        let states = sample_states(6);
        write_states_32(&mut mem, 0, 4096, 30, &states).unwrap();
        assert_eq!(read_states_32(&mem, 0, 4096, 30, 6).unwrap(), states);
    }

    #[test]
    fn layout32_splits_halves() {
        let mut mem = DataMemory::new(1 << 16);
        let mut state = KeccakState::new();
        state.set_lane(0, 0, 0xAAAA_BBBB_CCCC_DDDD);
        write_states_32(&mut mem, 0, 4096, 5, &[state]).unwrap();
        assert_eq!(mem.read(0, 4).unwrap(), 0xCCCC_DDDD);
        assert_eq!(mem.read(4096, 4).unwrap(), 0xAAAA_BBBB);
    }

    #[test]
    fn unused_slots_are_zeroed() {
        let mut mem = DataMemory::new(1 << 16);
        // Pre-fill with garbage.
        for addr in (0..1200u32).step_by(8) {
            mem.write(addr, 8, u64::MAX).unwrap();
        }
        let states = sample_states(1);
        write_states_64(&mut mem, 0, 15, &states).unwrap();
        // Slot 1 of plane 0 must be zero.
        assert_eq!(mem.read(8 * 5, 8).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "too many states")]
    fn capacity_checked() {
        let mut mem = DataMemory::new(1 << 16);
        let states = sample_states(2);
        let _ = write_states_64(&mut mem, 0, 5, &states);
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(render_layout_64(15).contains("s00.A2"));
        assert!(render_layout_32(10).contains("sh44.A1"));
    }
}
