//! Process-wide compile-once kernel cache.
//!
//! Generating a kernel is not free: the generator renders a few hundred
//! lines of assembly text, the assembler parses and encodes them, and
//! the processor pre-decodes the result into a [`DecodedProgram`]. None
//! of that depends on anything but the [`KernelKind`] and the `EleNum`,
//! yet the seed code repeated it for every engine — so a pool of eight
//! workers assembled the same kernel eight times, and every engine
//! constructed for a fresh message set paid it again.
//!
//! This module memoizes the whole pipeline behind a process-wide map
//! keyed by `(kind, elenum)`. The first request generates, assembles and
//! pre-decodes the kernel; every later request — from any thread — gets
//! the same [`Arc<PreparedKernel>`] back. Engines share the contained
//! [`DecodedProgram`] directly via
//! [`Processor::load_decoded`](krv_vproc::Processor::load_decoded), so a
//! pool's workers all dispatch from one immutable program image.
//!
//! The cache is only valid for the paper-calibrated timing model (the
//! one [`KernelKind`]'s processor configurations use); that invariant is
//! enforced by `load_decoded`'s timing-model equality check.

use crate::engine::KernelKind;
use crate::programs::KernelProgram;
use krv_vproc::{CompiledProgram, DecodedProgram};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A kernel that has been generated, assembled and pre-decoded once,
/// ready to be shared by any number of engines.
#[derive(Debug)]
pub struct PreparedKernel {
    /// The generated kernel (assembly source, program, markers, presets).
    pub kernel: KernelProgram,
    /// The program pre-decoded against the paper timing model, shareable
    /// across processors.
    pub decoded: Arc<DecodedProgram>,
    /// The compiled-tier view of the same program. Blocks lower lazily,
    /// per vector configuration, on first dispatch — and because this
    /// handle is cached per `(kind, EleNum)`, every engine and pool
    /// worker for that key shares one compiled block pool.
    pub compiled: Arc<CompiledProgram>,
}

type CacheKey = (KernelKind, usize);

static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<PreparedKernel>>>> = OnceLock::new();

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<PreparedKernel>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the prepared kernel for `(kind, elenum)`, generating and
/// pre-decoding it on first use and returning the cached copy afterward.
///
/// # Panics
///
/// Panics if `elenum` is not a positive multiple of 5 (the generators
/// require `EleNum = 5 × SN`).
pub fn prepared_kernel(kind: KernelKind, elenum: usize) -> Arc<PreparedKernel> {
    let mut map = cache().lock().expect("kernel cache poisoned");
    Arc::clone(map.entry((kind, elenum)).or_insert_with(|| {
        let kernel = kind.generate(elenum);
        let timing = kind.processor_config(elenum).timing;
        let decoded = Arc::new(DecodedProgram::compile(
            kernel.program.instructions(),
            &timing,
        ));
        let compiled = Arc::new(CompiledProgram::new(Arc::clone(&decoded)));
        Arc::new(PreparedKernel {
            kernel,
            decoded,
            compiled,
        })
    }))
}

/// Number of distinct `(kind, EleNum)` kernels prepared so far in this
/// process (diagnostics).
pub fn prepared_kernel_count() -> usize {
    cache().lock().expect("kernel cache poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_requests_share_one_preparation() {
        let first = prepared_kernel(KernelKind::E64Lmul8, 15);
        let second = prepared_kernel(KernelKind::E64Lmul8, 15);
        assert!(Arc::ptr_eq(&first, &second), "same Arc from the cache");
        assert!(Arc::ptr_eq(&first.decoded, &second.decoded));
    }

    #[test]
    fn distinct_keys_get_distinct_kernels() {
        let lmul8 = prepared_kernel(KernelKind::E64Lmul8, 5);
        let lmul1 = prepared_kernel(KernelKind::E64Lmul1, 5);
        let wider = prepared_kernel(KernelKind::E64Lmul8, 10);
        assert!(!Arc::ptr_eq(&lmul8, &lmul1));
        assert!(!Arc::ptr_eq(&lmul8, &wider));
        assert_eq!(lmul8.kernel.elenum, 5);
        assert_eq!(wider.kernel.elenum, 10);
    }

    #[test]
    fn decoded_program_matches_assembled_kernel() {
        let prepared = prepared_kernel(KernelKind::E32Lmul8, 10);
        assert_eq!(
            prepared.decoded.instructions(),
            prepared.kernel.program.instructions(),
        );
    }

    #[test]
    fn concurrent_first_use_is_safe() {
        // Hammer one key from several threads; every thread must end up
        // with the same shared preparation.
        let kind = KernelKind::E64Fused;
        let arcs: Vec<Arc<PreparedKernel>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || prepared_kernel(kind, 20)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for arc in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], arc));
        }
    }
}
