//! The vector register file and configuration state (paper Figure 4).

use crate::config::Elen;
use crate::trap::Trap;
use krv_isa::{Sew, VReg, Vtype};

/// Number of vector registers (RVV 1.0 fixes this at 32).
pub const NUM_VREGS: usize = 32;

/// The vector unit's architectural state: the register file plus the
/// `vl` / `vtype` configuration CSRs.
///
/// The register file holds `32 × EleNum × ELEN` bits, stored as a flat
/// little-endian array of 64-bit words so that ELEN-wide elements are
/// single machine words, any SEW ≤ ELEN still addresses sub-word
/// elements, and LMUL register groups are contiguous element ranges —
/// matching the address allocation of paper Figure 4.
///
/// Every legal element access is word-aligned to its own width: register
/// boundaries are multiples of `ELEN/8` bytes and SEW never exceeds
/// ELEN, so no element straddles a 64-bit storage word. Element reads
/// and writes are therefore a single shift/mask; on the 64-bit
/// architecture a register group is a contiguous word range, which only
/// the compiled tier ([`crate::compiled`]) addresses directly.
#[derive(Debug, Clone)]
pub struct VectorUnit {
    elen: Elen,
    elenum: usize,
    words: Vec<u64>,
    vl: u32,
    vtype: Vtype,
    /// Elements per register at the current SEW, cached on `vsetvli` so
    /// the per-instruction paths never divide (derived state, not
    /// architectural).
    epr: u32,
}

impl VectorUnit {
    /// Creates a zeroed vector unit.
    pub fn new(elen: Elen, elenum: usize) -> Self {
        let default_vtype = match elen {
            Elen::Bits32 => Vtype::new(Sew::E32, krv_isa::Lmul::M1),
            Elen::Bits64 => Vtype::new(Sew::E64, krv_isa::Lmul::M1),
        };
        let total_bytes = NUM_VREGS * elenum * elen.bytes() as usize;
        let reg_bytes = (elenum * elen.bytes() as usize) as u32;
        Self {
            elen,
            elenum,
            words: vec![0; total_bytes.div_ceil(8)],
            vl: 0,
            vtype: default_vtype,
            epr: reg_bytes / default_vtype.sew().bytes(),
        }
    }

    /// The configured element width.
    pub fn elen(&self) -> Elen {
        self.elen
    }

    /// Elements of ELEN width per register (the paper's `EleNum`).
    pub fn elenum(&self) -> usize {
        self.elenum
    }

    /// Bytes per vector register.
    pub fn reg_bytes(&self) -> usize {
        self.elenum * self.elen.bytes() as usize
    }

    /// The current vector length (elements per instruction).
    pub fn vl(&self) -> u32 {
        self.vl
    }

    /// The current vtype configuration.
    pub fn vtype(&self) -> Vtype {
        self.vtype
    }

    /// Elements per single register at the current SEW (cached on
    /// `vsetvli` — reading it costs nothing in the execution loops).
    #[inline]
    pub fn elements_per_register(&self) -> u32 {
        self.epr
    }

    /// Applies `vsetvli`: configures `vtype` and sets `vl = min(avl,
    /// VLMAX)`. Returns the granted VL.
    ///
    /// # Errors
    ///
    /// Traps if the requested SEW is wider than the hardware ELEN (the
    /// hardware would set `vill`).
    pub fn set_config(&mut self, avl: u32, vtype: Vtype) -> Result<u32, Trap> {
        self.vl = self.grant(avl, vtype)?;
        self.vtype = vtype;
        self.epr = (self.reg_bytes() as u32) / vtype.sew().bytes();
        Ok(self.vl)
    }

    /// The VL [`VectorUnit::set_config`] would grant, without changing
    /// anything.
    ///
    /// # Errors
    ///
    /// The trap `set_config` would raise.
    pub(crate) fn grant(&self, avl: u32, vtype: Vtype) -> Result<u32, Trap> {
        if vtype.sew().bits() > self.elen.bits() {
            return Err(Trap::VectorConfig {
                reason: "requested SEW exceeds the processor ELEN",
            });
        }
        Ok(avl.min(vtype.vlmax(self.elenum as u32, self.elen.bits())))
    }

    /// Byte offset of element `idx` (of `bytes` width) in the group at
    /// `base`, bounds-checked against the register file.
    #[inline]
    fn elem_offset(&self, base: VReg, idx: usize, bytes: usize) -> usize {
        let offset = base.index() * self.reg_bytes() + idx * bytes;
        assert!(
            offset + bytes <= self.words.len() * 8,
            "element {idx} of group {base} exceeds the register file"
        );
        offset
    }

    /// Reads element `idx` of the register group starting at `base`, at
    /// the current SEW. `idx` may index into subsequent registers of an
    /// LMUL group.
    ///
    /// # Panics
    ///
    /// Panics if the element lies beyond register 31 (the executors trap
    /// on such a group before their first access, so programs never
    /// reach this).
    #[inline]
    pub fn read_elem(&self, base: VReg, idx: usize) -> u64 {
        self.read_elem_sew(base, idx, self.vtype.sew())
    }

    /// Reads element `idx` of the group at `base` with an explicit width.
    #[inline]
    pub fn read_elem_sew(&self, base: VReg, idx: usize, sew: Sew) -> u64 {
        let bytes = sew.bytes() as usize;
        let offset = self.elem_offset(base, idx, bytes);
        let word = self.words[offset >> 3];
        if bytes == 8 {
            word
        } else {
            let shift = ((offset & 7) * 8) as u32;
            (word >> shift) & (u64::MAX >> (64 - 8 * bytes))
        }
    }

    /// Writes element `idx` of the register group starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the element lies beyond register 31.
    #[inline]
    pub fn write_elem(&mut self, base: VReg, idx: usize, value: u64) {
        self.write_elem_sew(base, idx, self.vtype.sew(), value);
    }

    /// Writes element `idx` of the group at `base` with an explicit width.
    #[inline]
    pub fn write_elem_sew(&mut self, base: VReg, idx: usize, sew: Sew, value: u64) {
        let bytes = sew.bytes() as usize;
        let offset = self.elem_offset(base, idx, bytes);
        let word = &mut self.words[offset >> 3];
        if bytes == 8 {
            *word = value;
        } else {
            let shift = ((offset & 7) * 8) as u32;
            let mask = u64::MAX >> (64 - 8 * bytes);
            *word = (*word & !(mask << shift)) | ((value & mask) << shift);
        }
    }

    /// Raw word storage for the compiled tier's word ops (64-bit
    /// architecture only — one lane per storage word, so `reg`'s group
    /// starts at word `reg × EleNum`).
    #[inline]
    pub(crate) fn words64_mut(&mut self) -> &mut [u64] {
        debug_assert_eq!(self.elen, Elen::Bits64, "words64_mut needs ELEN=64");
        &mut self.words
    }

    /// Shared view of the raw word storage for the compiled tier's word
    /// ops (64-bit architecture only — one lane per storage word).
    #[inline]
    pub(crate) fn words64(&self) -> &[u64] {
        debug_assert_eq!(self.elen, Elen::Bits64, "words64 needs ELEN=64");
        &self.words
    }

    /// Total number of 64-bit storage words in the register file (valid
    /// on either architecture; used for compile-time bounds proofs).
    #[inline]
    pub(crate) fn words_len(&self) -> usize {
        self.words.len()
    }

    /// Reads mask bit `idx` from `v0` (RVV mask layout: bit `idx` of the
    /// register viewed as a bit array).
    #[inline]
    pub fn mask_bit(&self, idx: usize) -> bool {
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Writes mask bit `idx` of register `vd`.
    pub fn write_mask_bit(&mut self, vd: VReg, idx: usize, bit: bool) {
        let offset = vd.index() * self.reg_bytes() + idx / 8;
        let word = &mut self.words[offset >> 3];
        let pos = (offset & 7) * 8 + idx % 8;
        if bit {
            *word |= 1 << pos;
        } else {
            *word &= !(1 << pos);
        }
    }

    /// Whether element `idx` participates given the instruction's `vm`
    /// bit (unmasked, or mask bit set in `v0`).
    #[inline]
    pub fn element_active(&self, vm: bool, idx: usize) -> bool {
        vm || self.mask_bit(idx)
    }

    /// Truncates a value to the element width (used by `.vx` operands:
    /// the scalar is sign-extended to SEW, then truncated).
    #[inline]
    pub fn truncate(&self, value: u64) -> u64 {
        match self.vtype.sew() {
            Sew::E8 => value & 0xFF,
            Sew::E16 => value & 0xFFFF,
            Sew::E32 => value & 0xFFFF_FFFF,
            Sew::E64 => value,
        }
    }

    /// Raw little-endian bytes of one register (tests/diagnostics).
    pub fn register_bytes(&self, reg: VReg) -> Vec<u8> {
        let reg_bytes = self.reg_bytes();
        let start = reg.index() * reg_bytes;
        (0..reg_bytes)
            .map(|i| {
                let offset = start + i;
                (self.words[offset >> 3] >> ((offset & 7) * 8)) as u8
            })
            .collect()
    }

    /// Overwrites one register from raw little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` differs from the register size.
    pub fn set_register_bytes(&mut self, reg: VReg, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.reg_bytes(), "register size mismatch");
        let start = reg.index() * self.reg_bytes();
        for (i, &byte) in bytes.iter().enumerate() {
            let offset = start + i;
            let word = &mut self.words[offset >> 3];
            let shift = (offset & 7) * 8;
            *word = (*word & !(0xFFu64 << shift)) | ((byte as u64) << shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_isa::Lmul;

    fn unit64() -> VectorUnit {
        let mut vu = VectorUnit::new(Elen::Bits64, 10);
        vu.set_config(10, Vtype::new(Sew::E64, Lmul::M1)).unwrap();
        vu
    }

    #[test]
    fn element_read_write_round_trip() {
        let mut vu = unit64();
        vu.write_elem(VReg::V3, 7, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(vu.read_elem(VReg::V3, 7), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(vu.read_elem(VReg::V3, 6), 0);
    }

    #[test]
    fn group_indexing_crosses_registers() {
        let mut vu = unit64();
        vu.set_config(80, Vtype::new(Sew::E64, Lmul::M8)).unwrap();
        // Element 10 of the group at v8 is element 0 of v9.
        vu.write_elem(VReg::V8, 10, 42);
        assert_eq!(vu.read_elem(VReg::V9, 0), 42);
    }

    #[test]
    fn vsetvli_clamps_to_vlmax() {
        let mut vu = unit64();
        let granted = vu.set_config(100, Vtype::new(Sew::E64, Lmul::M1)).unwrap();
        assert_eq!(granted, 10);
        let granted = vu.set_config(100, Vtype::new(Sew::E64, Lmul::M8)).unwrap();
        assert_eq!(granted, 80);
        let granted = vu.set_config(3, Vtype::new(Sew::E64, Lmul::M1)).unwrap();
        assert_eq!(granted, 3);
    }

    #[test]
    fn sew_wider_than_elen_traps() {
        let mut vu = VectorUnit::new(Elen::Bits32, 10);
        assert!(matches!(
            vu.set_config(10, Vtype::new(Sew::E64, Lmul::M1)),
            Err(Trap::VectorConfig { .. })
        ));
    }

    #[test]
    fn narrow_sew_doubles_elements() {
        let mut vu = VectorUnit::new(Elen::Bits64, 10);
        vu.set_config(20, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        assert_eq!(vu.vl(), 20);
        assert_eq!(vu.elements_per_register(), 20);
        vu.write_elem(VReg::V1, 19, 0xAABB_CCDD);
        assert_eq!(vu.read_elem(VReg::V1, 19), 0xAABB_CCDD);
    }

    #[test]
    fn sub_word_writes_do_not_disturb_neighbors() {
        // Two 32-bit elements share one storage word; writing one must
        // leave the other intact.
        let mut vu = VectorUnit::new(Elen::Bits64, 10);
        vu.set_config(20, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        vu.write_elem(VReg::V1, 4, 0x1111_1111);
        vu.write_elem(VReg::V1, 5, 0x2222_2222);
        vu.write_elem(VReg::V1, 4, 0x3333_3333);
        assert_eq!(vu.read_elem(VReg::V1, 4), 0x3333_3333);
        assert_eq!(vu.read_elem(VReg::V1, 5), 0x2222_2222);
    }

    #[test]
    fn odd_elenum_32bit_registers_stay_isolated() {
        // EleNum = 5 on the 32-bit architecture: registers are 20 bytes,
        // so consecutive registers share storage words mid-word.
        let mut vu = VectorUnit::new(Elen::Bits32, 5);
        vu.set_config(5, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        vu.write_elem(VReg::V1, 4, 0xAAAA_AAAA);
        vu.write_elem(VReg::V2, 0, 0xBBBB_BBBB);
        assert_eq!(vu.read_elem(VReg::V1, 4), 0xAAAA_AAAA);
        assert_eq!(vu.read_elem(VReg::V2, 0), 0xBBBB_BBBB);
    }

    #[test]
    fn mask_bits() {
        let mut vu = unit64();
        vu.write_mask_bit(VReg::V0, 0, true);
        vu.write_mask_bit(VReg::V0, 9, true);
        assert!(vu.mask_bit(0));
        assert!(!vu.mask_bit(1));
        assert!(vu.mask_bit(9));
        assert!(vu.element_active(false, 9));
        assert!(!vu.element_active(false, 3));
        assert!(vu.element_active(true, 3));
    }

    #[test]
    fn truncate_by_sew() {
        let mut vu = VectorUnit::new(Elen::Bits64, 4);
        vu.set_config(4, Vtype::new(Sew::E32, Lmul::M1)).unwrap();
        assert_eq!(vu.truncate(0x1_2345_6789), 0x2345_6789);
    }

    #[test]
    fn register_bytes_round_trip() {
        let mut vu = unit64();
        let data: Vec<u8> = (0..vu.reg_bytes() as u8)
            .map(|b| b.wrapping_mul(3))
            .collect();
        vu.set_register_bytes(VReg::V5, &data);
        assert_eq!(vu.register_bytes(VReg::V5), data);
    }
}
