//! Byte-addressable data memory with little-endian accessors.

use crate::trap::Trap;

/// The simulated data memory of the SoC (paper Figure 3, "Data Mem").
///
/// All multi-byte accesses are little-endian and must be naturally
/// aligned, as on the modelled Ibex core.
#[derive(Debug, Clone)]
pub struct DataMemory {
    bytes: Vec<u8>,
}

impl DataMemory {
    /// Creates a zero-initialized memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            bytes: vec![0; size],
        }
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check(&self, addr: u32, size: u32) -> Result<usize, Trap> {
        let addr_usize = addr as usize;
        if !addr.is_multiple_of(size) {
            return Err(Trap::MisalignedAccess { addr, size });
        }
        if addr_usize + size as usize > self.bytes.len() {
            return Err(Trap::MemoryAccess { addr, size });
        }
        Ok(addr_usize)
    }

    /// Reads `size` bytes (1, 2, 4 or 8) little-endian.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] for out-of-bounds or misaligned accesses.
    pub fn read(&self, addr: u32, size: u32) -> Result<u64, Trap> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let base = self.check(addr, size)?;
        Ok(match size {
            1 => self.bytes[base] as u64,
            2 => u16::from_le_bytes(self.bytes[base..base + 2].try_into().unwrap()) as u64,
            4 => u32::from_le_bytes(self.bytes[base..base + 4].try_into().unwrap()) as u64,
            _ => u64::from_le_bytes(self.bytes[base..base + 8].try_into().unwrap()),
        })
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] for out-of-bounds or misaligned accesses.
    pub fn write(&mut self, addr: u32, size: u32, value: u64) -> Result<(), Trap> {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let base = self.check(addr, size)?;
        match size {
            1 => self.bytes[base] = value as u8,
            2 => self.bytes[base..base + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => self.bytes[base..base + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            _ => self.bytes[base..base + 8].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Bulk little-endian read of `out.len()` aligned 64-bit words
    /// starting at `addr`, for the compiled-tier fast path. Returns
    /// `false` without touching `out` if the region is misaligned or out
    /// of bounds — for unit-stride 8-byte accesses that predicate is
    /// exactly "every element-wise access would succeed", so callers can
    /// fall back to the element-serial path for identical trap behaviour.
    pub(crate) fn read_words64(&self, addr: u32, out: &mut [u64]) -> bool {
        if out.is_empty() {
            return true;
        }
        let base = addr as usize;
        if !addr.is_multiple_of(8) || base + 8 * out.len() > self.bytes.len() {
            return false;
        }
        for (chunk, word) in self.bytes[base..base + 8 * out.len()]
            .chunks_exact(8)
            .zip(out.iter_mut())
        {
            *word = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        true
    }

    /// Bulk little-endian write of aligned 64-bit words at `addr`
    /// (counterpart of [`DataMemory::read_words64`]). Returns `false`
    /// without writing anything if the region is misaligned or out of
    /// bounds.
    pub(crate) fn write_words64(&mut self, addr: u32, src: &[u64]) -> bool {
        if src.is_empty() {
            return true;
        }
        let base = addr as usize;
        if !addr.is_multiple_of(8) || base + 8 * src.len() > self.bytes.len() {
            return false;
        }
        for (chunk, word) in self.bytes[base..base + 8 * src.len()]
            .chunks_exact_mut(8)
            .zip(src.iter())
        {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        true
    }

    /// The `len` bytes at `addr`, borrowed in place, so a host can stage
    /// a whole region with one bounds check instead of one per access
    /// (no alignment is required; [`DataMemory::region_mut`] is the
    /// writable form).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the region exceeds the memory.
    pub fn region(&self, addr: u32, len: usize) -> Result<&[u8], Trap> {
        let base = addr as usize;
        self.bytes.get(base..base + len).ok_or(Trap::MemoryAccess {
            addr,
            size: len as u32,
        })
    }

    /// The writable form of [`DataMemory::region`].
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the region exceeds the memory.
    pub fn region_mut(&mut self, addr: u32, len: usize) -> Result<&mut [u8], Trap> {
        let base = addr as usize;
        self.bytes
            .get_mut(base..base + len)
            .ok_or(Trap::MemoryAccess {
                addr,
                size: len as u32,
            })
    }

    /// Copies a byte slice into memory at `addr` (no alignment required).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the region exceeds the memory.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), Trap> {
        self.region_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` (no alignment required).
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] if the region exceeds the memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, Trap> {
        self.region(addr, len).map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_round_trip() {
        let mut mem = DataMemory::new(64);
        mem.write(8, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(mem.read(8, 8).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(mem.read(8, 1).unwrap(), 0x08);
        assert_eq!(mem.read(12, 4).unwrap(), 0x0102_0304);
    }

    #[test]
    fn misaligned_access_traps() {
        let mem = DataMemory::new(64);
        assert_eq!(
            mem.read(2, 4),
            Err(Trap::MisalignedAccess { addr: 2, size: 4 })
        );
    }

    #[test]
    fn out_of_bounds_traps() {
        let mut mem = DataMemory::new(16);
        assert_eq!(
            mem.write(16, 4, 0),
            Err(Trap::MemoryAccess { addr: 16, size: 4 })
        );
        assert_eq!(
            mem.read(16, 8),
            Err(Trap::MemoryAccess { addr: 16, size: 8 })
        );
    }

    #[test]
    fn byte_slice_helpers() {
        let mut mem = DataMemory::new(16);
        mem.write_bytes(3, &[1, 2, 3]).unwrap();
        assert_eq!(mem.read_bytes(3, 3).unwrap(), vec![1, 2, 3]);
        assert!(mem.write_bytes(15, &[0, 0]).is_err());
        assert_eq!(mem.region(3, 3).unwrap(), &[1, 2, 3]);
        mem.region_mut(4, 1).unwrap()[0] = 9;
        assert_eq!(mem.read(4, 1).unwrap(), 9);
        let past_end = Some(Trap::MemoryAccess { addr: 12, size: 5 });
        assert_eq!(mem.region(12, 5).err(), past_end);
        assert_eq!(mem.region_mut(12, 5).err(), past_end);
    }
}
