//! A fully device-resident lockstep sponge.
//!
//! [`VectorKeccakEngine`](crate::VectorKeccakEngine) accelerates the
//! permutation but leaves the sponge XOR on the host. `DeviceSponge`
//! moves the absorbing phase onto the simulated processor too: message
//! blocks are staged in device memory and XORed into the resident states
//! by vector instructions (`kernel_e64_absorb`), so between permutations
//! the states never leave the device — the deployment model the paper
//! targets for CRYSTALS-Kyber (§1, §5).
//!
//! The device-side absorb costs 25 cycles per rate block (5 × `vle64` +
//! 5 × `vxor.vv` at LMUL=1) on top of the 1893-cycle permutation — a
//! 1.3 % overhead, measured by [`DeviceSponge::absorb_cycles`].

use crate::layout;
use crate::programs::{kernel_e64_absorb, KernelProgram, BLOCK_BASE, STATE_BASE};
use krv_isa::XReg;
use krv_keccak::constants::STATE_BYTES;
use krv_keccak::KeccakState;
use krv_sha3::SpongeParams;
use krv_vproc::{Processor, ProcessorConfig, Trap};

/// Scalar register selecting absorb (non-zero) vs permute-only mode
/// (`s7`; the absorb kernel's `beqz s7, permutation`).
const MODE_REG: XReg = XReg::X23;

/// `n` lockstep sponge instances whose states live in device memory and
/// whose absorb XOR and permutation run on the simulated vector
/// processor (64-bit architecture, LMUL=8 rounds).
///
/// # Example
///
/// ```
/// use krv_core::device::DeviceSponge;
/// use krv_sha3::{Shake128, SpongeParams, Xof};
///
/// let mut device = DeviceSponge::new(SpongeParams::shake(128), 2);
/// device.absorb(&[b"first", b"other"]).unwrap();
/// let outputs = device.squeeze(32).unwrap();
///
/// // Bit-identical to the host XOF.
/// let mut host = Shake128::new();
/// host.update(b"first");
/// assert_eq!(outputs[0], host.squeeze(32));
/// ```
#[derive(Debug, Clone)]
pub struct DeviceSponge {
    params: SpongeParams,
    states: usize,
    cpu: Processor,
    kernel: KernelProgram,
    /// Per-member partial-block byte buffers (host-side staging only;
    /// the cumulative state lives in device memory).
    buffers: Vec<Vec<u8>>,
    /// Squeeze offset within the current output block; `None` while
    /// absorbing.
    squeeze_offset: Option<usize>,
    /// Cycles spent in device passes attributable to absorb XOR.
    absorb_cycles: u64,
    /// Total device cycles across all passes.
    total_cycles: u64,
}

impl DeviceSponge {
    /// Creates `n` device-resident sponges with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(params: SpongeParams, n: usize) -> Self {
        assert!(n > 0, "device sponge needs at least one member");
        let elenum = 5 * n;
        let kernel = kernel_e64_absorb(elenum);
        let mut cpu = Processor::new(ProcessorConfig::elen64(elenum).with_dmem_bytes(1 << 17));
        cpu.load_program(kernel.program.instructions());
        // Zero-initialize the resident states (region is zeroed memory
        // already, but make the intent explicit and re-runnable).
        layout::write_states_64(
            cpu.dmem_mut(),
            STATE_BASE,
            elenum,
            &vec![KeccakState::new(); n],
        )
        .expect("state region fits");
        Self {
            params,
            states: n,
            cpu,
            kernel,
            buffers: vec![Vec::new(); n],
            squeeze_offset: None,
            absorb_cycles: 0,
            total_cycles: 0,
        }
    }

    /// Number of member sponges.
    pub fn len(&self) -> usize {
        self.states
    }

    /// Whether there are no members (never true).
    pub fn is_empty(&self) -> bool {
        self.states == 0
    }

    /// Device cycles spent on the absorb XOR sections so far.
    pub fn absorb_cycles(&self) -> u64 {
        self.absorb_cycles
    }

    /// Total device cycles across all hardware passes so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Absorbs one equal-length chunk into every member.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on kernel faults (internal bug).
    ///
    /// # Panics
    ///
    /// Panics if the chunk count or lengths mismatch, or if squeezing
    /// has started.
    pub fn absorb(&mut self, inputs: &[&[u8]]) -> Result<(), Trap> {
        assert!(
            self.squeeze_offset.is_none(),
            "cannot absorb after squeezing has started"
        );
        assert_eq!(inputs.len(), self.states, "one chunk per member required");
        let len = inputs[0].len();
        assert!(
            inputs.iter().all(|i| i.len() == len),
            "lockstep absorption requires equal-length chunks"
        );
        let rate = self.params.rate_bytes();
        let mut consumed = 0;
        while consumed < len {
            let take = (rate - self.buffers[0].len()).min(len - consumed);
            for (buffer, input) in self.buffers.iter_mut().zip(inputs) {
                buffer.extend_from_slice(&input[consumed..consumed + take]);
            }
            consumed += take;
            if self.buffers[0].len() == rate {
                self.flush_blocks()?;
            }
        }
        Ok(())
    }

    /// Pads the final partial block and runs the closing absorb pass.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on kernel faults.
    pub fn finalize_absorb(&mut self) -> Result<(), Trap> {
        if self.squeeze_offset.is_some() {
            return Ok(());
        }
        let rate = self.params.rate_bytes();
        let pad_byte = self.params.domain().first_pad_byte();
        for buffer in &mut self.buffers {
            let fill = buffer.len();
            buffer.resize(rate, 0);
            buffer[fill] ^= pad_byte;
            buffer[rate - 1] ^= 0x80;
        }
        self.flush_blocks()?;
        self.squeeze_offset = Some(0);
        Ok(())
    }

    /// Squeezes `len` bytes from every member.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on kernel faults.
    pub fn squeeze(&mut self, len: usize) -> Result<Vec<Vec<u8>>, Trap> {
        self.finalize_absorb()?;
        let rate = self.params.rate_bytes();
        let mut offset = self.squeeze_offset.expect("set by finalize_absorb");
        let mut outputs = vec![Vec::with_capacity(len); self.states];
        let mut written = 0;
        while written < len {
            if offset == rate {
                self.run_pass(false)?;
                offset = 0;
            }
            let take = (rate - offset).min(len - written);
            let states = layout::read_states_64(
                self.cpu.dmem(),
                STATE_BASE,
                self.kernel.elenum,
                self.states,
            )?;
            for (state, out) in states.iter().zip(&mut outputs) {
                let bytes = state.to_bytes();
                out.extend_from_slice(&bytes[offset..offset + take]);
            }
            offset += take;
            written += take;
        }
        self.squeeze_offset = Some(offset);
        Ok(outputs)
    }

    /// Stages the buffered rate blocks in device memory and runs one
    /// absorb+permute pass.
    fn flush_blocks(&mut self) -> Result<(), Trap> {
        let elenum = self.kernel.elenum;
        // Each member's rate block, zero-extended to a full state image
        // (XOR with zero is identity for the capacity lanes).
        let blocks: Vec<KeccakState> = self
            .buffers
            .iter()
            .map(|buffer| {
                let mut image = [0u8; STATE_BYTES];
                image[..buffer.len()].copy_from_slice(buffer);
                KeccakState::from_bytes(&image)
            })
            .collect();
        layout::write_states_64(self.cpu.dmem_mut(), BLOCK_BASE, elenum, &blocks)?;
        for buffer in &mut self.buffers {
            buffer.clear();
        }
        self.run_pass(true)
    }

    /// Runs the kernel once; `absorb` selects the device-XOR section.
    fn run_pass(&mut self, absorb: bool) -> Result<(), Trap> {
        for &(reg, addr) in &self.kernel.presets {
            self.cpu.set_xreg(reg, addr);
        }
        self.cpu.set_xreg(MODE_REG, absorb as u32);
        self.cpu.set_pc(0);
        self.cpu.reset_counters();
        self.cpu.run(1_000_000)?;
        self.total_cycles += self.cpu.cycles();
        if absorb {
            // The XOR section: 5 unit-stride loads (3 cc) + 5 vxor (2 cc)
            // + the not-taken beqz (1 cc), measured by construction.
            self.absorb_cycles += 5 * 3 + 5 * 2 + 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krv_sha3::{hash_batch, BatchRequest, ReferenceBackend, Shake128, Xof};

    #[test]
    fn device_sponge_matches_host_xof() {
        let mut device = DeviceSponge::new(SpongeParams::shake(128), 3);
        let inputs: [&[u8]; 3] = [b"alpha", b"betaa", b"gamma"];
        device.absorb(&inputs).unwrap();
        let outputs = device.squeeze(100).unwrap();
        for (input, output) in inputs.iter().zip(&outputs) {
            let mut host = Shake128::new();
            host.update(input);
            assert_eq!(*output, host.squeeze(100));
        }
    }

    #[test]
    fn multi_block_messages_absorb_on_device() {
        // 500 bytes crosses several 168-byte SHAKE128 rate blocks.
        let messages: Vec<Vec<u8>> = (0..2u8).map(|i| vec![i ^ 0x37; 500]).collect();
        let refs: Vec<&[u8]> = messages.iter().map(|v| v.as_slice()).collect();
        let mut device = DeviceSponge::new(SpongeParams::shake(128), 2);
        device.absorb(&refs).unwrap();
        let device_out = device.squeeze(64).unwrap();
        let requests: Vec<BatchRequest<'_>> =
            refs.iter().map(|m| BatchRequest::new(m, 64)).collect();
        let host = hash_batch(SpongeParams::shake(128), ReferenceBackend::new(), &requests);
        assert_eq!(device_out, host);
        // 500 bytes = 2 full blocks absorbed mid-stream + 1 padded block.
        assert!(device.absorb_cycles() >= 3 * 26);
    }

    #[test]
    fn sha3_parameters_work_too() {
        let mut device = DeviceSponge::new(SpongeParams::sha3(256), 1);
        device.absorb(&[b"abc"]).unwrap();
        let digest = device.squeeze(32).unwrap();
        assert_eq!(
            krv_sha3::hex(&digest[0]),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn absorb_overhead_is_small() {
        let mut device = DeviceSponge::new(SpongeParams::shake(128), 1);
        device.absorb(&[&[0u8; 168]]).unwrap(); // exactly one rate block
        let total = device.total_cycles();
        let absorb = device.absorb_cycles();
        assert!(absorb > 0);
        assert!(
            (absorb as f64) / (total as f64) < 0.03,
            "absorb {absorb} of {total} cycles"
        );
    }

    #[test]
    #[should_panic(expected = "equal-length chunks")]
    fn unequal_chunks_rejected() {
        let mut device = DeviceSponge::new(SpongeParams::shake(128), 2);
        let _ = device.absorb(&[b"abc", b"de"]);
    }
}
