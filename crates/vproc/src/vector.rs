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
/// and writes are therefore a single shift/mask, and for the 64-bit
/// architecture whole register groups can be borrowed as `&[u64]` lane
/// slices ([`VectorUnit::lanes64`]) with no copying at all.
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
    /// Recycled snapshot buffers for the executors (see
    /// [`VectorUnit::take_scratch`]); never architectural state.
    scratch_pool: Vec<Vec<u64>>,
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
            scratch_pool: Vec::new(),
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
    /// Panics if the element lies beyond register 31 (the assembler and
    /// kernels never produce such accesses).
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

    /// Borrows `len` consecutive 64-bit lanes of the group at `base`
    /// (64-bit architecture only: one lane per storage word).
    ///
    /// # Panics
    ///
    /// Panics if ELEN ≠ 64 or the range exceeds the register file.
    #[inline]
    pub fn lanes64(&self, base: VReg, len: usize) -> &[u64] {
        debug_assert_eq!(self.elen, Elen::Bits64, "lanes64 needs ELEN=64");
        let start = base.index() * self.elenum;
        &self.words[start..start + len]
    }

    /// Mutably borrows `len` consecutive 64-bit lanes of the group at
    /// `base` (64-bit architecture only).
    ///
    /// # Panics
    ///
    /// Panics if ELEN ≠ 64 or the range exceeds the register file.
    #[inline]
    pub fn lanes64_mut(&mut self, base: VReg, len: usize) -> &mut [u64] {
        debug_assert_eq!(self.elen, Elen::Bits64, "lanes64 needs ELEN=64");
        let start = base.index() * self.elenum;
        &mut self.words[start..start + len]
    }

    /// Raw word storage for executor fast paths in this crate; pair with
    /// [`VectorUnit::lane_base`] (64-bit architecture only — one lane
    /// per storage word).
    #[inline]
    pub(crate) fn words64_mut(&mut self) -> &mut [u64] {
        debug_assert_eq!(self.elen, Elen::Bits64, "words64_mut needs ELEN=64");
        &mut self.words
    }

    /// Shared view of the raw word storage for executor fast paths in
    /// this crate (64-bit architecture only — one lane per storage word).
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

    /// First storage-word index of `reg`'s group (64-bit architecture).
    #[inline]
    pub(crate) fn lane_base(&self, reg: VReg) -> usize {
        reg.index() * self.elenum
    }

    /// Applies `vd[i] = f(vs2[i], vs1[i])` over `len` 64-bit lanes
    /// directly on the flat word storage, with no source snapshots
    /// (64-bit architecture only).
    ///
    /// Exactly-aliasing groups (`vd == vs2`, `vs2 == vs1`, …) compute in
    /// place: lane `i` is written only after both operands at index `i`
    /// were read, which matches the snapshot-then-write semantics for
    /// elementwise ops. Groups that overlap *partially* (an LMUL group
    /// starting inside another) fall back to snapshotting the sources.
    ///
    /// # Panics
    ///
    /// Panics if a group's `len` lanes exceed the register file.
    #[inline]
    pub fn apply2_64(
        &mut self,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        len: usize,
        f: impl Fn(u64, u64) -> u64,
    ) {
        debug_assert_eq!(self.elen, Elen::Bits64, "apply2_64 needs ELEN=64");
        let n = self.elenum;
        let (d, a, b) = (vd.index() * n, vs2.index() * n, vs1.index() * n);
        if d == a && d == b {
            for lane in &mut self.words[d..d + len] {
                *lane = f(*lane, *lane);
            }
        } else if d == a {
            match self.words.get_disjoint_mut([d..d + len, b..b + len]) {
                Ok([dst, s1]) => {
                    for (x, &y) in dst.iter_mut().zip(s1.iter()) {
                        *x = f(*x, y);
                    }
                }
                Err(_) => self.apply2_64_snapshot(vd, vs2, vs1, len, f),
            }
        } else if d == b {
            match self.words.get_disjoint_mut([d..d + len, a..a + len]) {
                Ok([dst, s2]) => {
                    for (x, &y) in dst.iter_mut().zip(s2.iter()) {
                        *x = f(y, *x);
                    }
                }
                Err(_) => self.apply2_64_snapshot(vd, vs2, vs1, len, f),
            }
        } else if a == b {
            match self.words.get_disjoint_mut([d..d + len, a..a + len]) {
                Ok([dst, s]) => {
                    for (x, &y) in dst.iter_mut().zip(s.iter()) {
                        *x = f(y, y);
                    }
                }
                Err(_) => self.apply2_64_snapshot(vd, vs2, vs1, len, f),
            }
        } else {
            match self
                .words
                .get_disjoint_mut([d..d + len, a..a + len, b..b + len])
            {
                Ok([dst, s2, s1]) => {
                    for ((x, &y2), &y1) in dst.iter_mut().zip(s2.iter()).zip(s1.iter()) {
                        *x = f(y2, y1);
                    }
                }
                Err(_) => self.apply2_64_snapshot(vd, vs2, vs1, len, f),
            }
        }
    }

    /// Partial-overlap fallback for [`VectorUnit::apply2_64`]: snapshot
    /// both sources before writing (the reference read-then-write order).
    #[cold]
    fn apply2_64_snapshot(
        &mut self,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        len: usize,
        f: impl Fn(u64, u64) -> u64,
    ) {
        let mut s2 = self.take_scratch();
        s2.extend_from_slice(self.lanes64(vs2, len));
        let mut s1 = self.take_scratch();
        s1.extend_from_slice(self.lanes64(vs1, len));
        for (i, lane) in self.lanes64_mut(vd, len).iter_mut().enumerate() {
            *lane = f(s2[i], s1[i]);
        }
        self.put_scratch(s1);
        self.put_scratch(s2);
    }

    /// Applies `vd[i] = f(i, vs2[i])` over `len` 64-bit lanes directly on
    /// the flat word storage (64-bit architecture only); the index lets
    /// per-element constants (ρ offsets, ι round constants) ride along.
    /// Aliasing rules are those of [`VectorUnit::apply2_64`].
    ///
    /// # Panics
    ///
    /// Panics if a group's `len` lanes exceed the register file.
    #[inline]
    pub fn apply1_64(&mut self, vd: VReg, vs2: VReg, len: usize, f: impl Fn(usize, u64) -> u64) {
        debug_assert_eq!(self.elen, Elen::Bits64, "apply1_64 needs ELEN=64");
        let n = self.elenum;
        let (d, a) = (vd.index() * n, vs2.index() * n);
        if d == a {
            for (i, lane) in self.words[d..d + len].iter_mut().enumerate() {
                *lane = f(i, *lane);
            }
        } else {
            match self.words.get_disjoint_mut([d..d + len, a..a + len]) {
                Ok([dst, src]) => {
                    for (i, (x, &y)) in dst.iter_mut().zip(src.iter()).enumerate() {
                        *x = f(i, y);
                    }
                }
                Err(_) => {
                    let mut snap = self.take_scratch();
                    snap.extend_from_slice(self.lanes64(vs2, len));
                    for (i, lane) in self.lanes64_mut(vd, len).iter_mut().enumerate() {
                        *lane = f(i, snap[i]);
                    }
                    self.put_scratch(snap);
                }
            }
        }
    }

    /// Takes a recycled scratch buffer (cleared, capacity preserved) for
    /// executor snapshots; return it with [`VectorUnit::put_scratch`] so
    /// steady-state execution allocates nothing.
    #[inline]
    pub fn take_scratch(&mut self) -> Vec<u64> {
        let mut buf = self.scratch_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a scratch buffer to the pool.
    #[inline]
    pub fn put_scratch(&mut self, buf: Vec<u64>) {
        if self.scratch_pool.len() < 4 {
            self.scratch_pool.push(buf);
        }
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

    #[test]
    fn lane_slices_view_the_register_file() {
        let mut vu = unit64();
        vu.set_config(80, Vtype::new(Sew::E64, Lmul::M8)).unwrap();
        vu.write_elem(VReg::V8, 12, 99);
        assert_eq!(vu.lanes64(VReg::V8, 20)[12], 99);
        vu.lanes64_mut(VReg::V8, 20)[13] = 77;
        assert_eq!(vu.read_elem(VReg::V9, 3), 77);
    }

    #[test]
    fn apply2_64_disjoint_and_aliased() {
        let mut vu = unit64();
        for i in 0..10 {
            vu.write_elem(VReg::V1, i, i as u64);
            vu.write_elem(VReg::V2, i, 100 + i as u64);
        }
        vu.apply2_64(VReg::V3, VReg::V1, VReg::V2, 10, |a, b| a + b);
        assert_eq!(vu.read_elem(VReg::V3, 4), 108);
        // vd == vs2 computes in place.
        vu.apply2_64(VReg::V1, VReg::V1, VReg::V2, 10, |a, b| a ^ b);
        assert_eq!(vu.read_elem(VReg::V1, 4), 4 ^ 104);
        // vs2 == vs1 feeds both operands from one group.
        vu.apply2_64(VReg::V4, VReg::V2, VReg::V2, 10, |a, b| a & b);
        assert_eq!(vu.read_elem(VReg::V4, 9), 109);
    }

    #[test]
    fn apply2_64_partial_overlap_reads_before_writing() {
        // Groups at V0 (words 0..8) and V1 (words 10..18) of an
        // elenum=10 file overlap when spanned for 12 lanes — the
        // fallback must read both full sources before any write.
        let mut vu = unit64();
        let len = 12;
        for i in 0..len {
            vu.write_elem(VReg::V0, i, i as u64);
            vu.write_elem(VReg::V1, i, 1000 + i as u64);
        }
        let expect_a: Vec<u64> = (0..len).map(|i| vu.read_elem(VReg::V0, i)).collect();
        let expect_b: Vec<u64> = (0..len).map(|i| vu.read_elem(VReg::V1, i)).collect();
        vu.apply2_64(VReg::V0, VReg::V0, VReg::V1, len, |a, b| a.wrapping_add(b));
        for i in 0..len {
            assert_eq!(
                vu.read_elem(VReg::V0, i),
                expect_a[i].wrapping_add(expect_b[i]),
                "lane {i} must combine the pre-instruction sources"
            );
        }
    }

    #[test]
    fn apply1_64_indexed_and_overlapping() {
        let mut vu = unit64();
        for i in 0..10 {
            vu.write_elem(VReg::V6, i, 10 + i as u64);
        }
        vu.apply1_64(VReg::V7, VReg::V6, 10, |i, v| v + i as u64);
        assert_eq!(vu.read_elem(VReg::V7, 9), 28);
        // Partial overlap (spans starting one register apart) snapshots.
        let before: Vec<u64> = (0..12).map(|i| vu.read_elem(VReg::V6, i)).collect();
        vu.apply1_64(VReg::V5, VReg::V6, 12, |_, v| v * 2);
        for (i, &b) in before.iter().enumerate() {
            assert_eq!(vu.read_elem(VReg::V5, i), b * 2);
        }
    }

    #[test]
    fn scratch_buffers_recycle() {
        let mut vu = unit64();
        let mut buf = vu.take_scratch();
        buf.extend_from_slice(&[1, 2, 3]);
        let ptr = buf.as_ptr();
        vu.put_scratch(buf);
        let again = vu.take_scratch();
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again.as_ptr(), ptr, "no fresh allocation");
    }
}
