//! Analytic timing model: roofline GEMMs, bandwidth-bound vector ops,
//! PCIe transfers.
//!
//! The paper's own optimization (Eq. 3–6) models execution time as
//! byte-counting over the link plus profiled compute times; this module
//! is the "profile" side. Three effects the evaluation section leans on
//! are modelled explicitly:
//!
//! 1. **Roofline**: an op takes `max(flop_time, memory_time)` — decoding
//!    GEMVs are memory-bound, prefill GEMMs compute-bound.
//! 2. **Small-GEMM under-utilization** (Figure 11): gathered sparse KV
//!    tensors produce small dense GEMMs that cannot fill the GPU, so
//!    achieved FLOPS collapse. Utilization rises smoothly with op size.
//! 3. **Low-intensity vector ops** (Figure 11): the local attention sum
//!    is a reduction with almost no data reuse; it runs at a fraction of
//!    peak bandwidth and can cost more than the `QKᵀ` it accompanies.

use alisa_tensor::quant::KvPrecision;
use serde::{Deserialize, Serialize};

use crate::hardware::HardwareSpec;

/// Fraction of peak HBM bandwidth achieved by low-intensity vector ops
/// (reductions, element-wise kernels). Profiling in the paper's Figure 11
/// shows ADD-class ops running far below MAC-class throughput.
const VECTOR_BW_EFFICIENCY: f64 = 0.15;

/// Fraction of peak HBM bandwidth achieved by irregular row gathers
/// (packing sparse KV tokens into a dense tensor, Algorithm 1 line 6).
const GATHER_BW_EFFICIENCY: f64 = 0.30;

/// Per-kernel fixed launch overhead in seconds.
const KERNEL_OVERHEAD: f64 = 5.0e-6;

/// FLOP count at which a GEMM reaches ~50% utilization. Calibrated so a
/// full-batch prefill GEMM saturates the device while a single-token
/// gathered GEMM sits far down the utilization curve, reproducing the
/// FLOPS drop annotated in Figure 11.
const GEMM_SATURATION_FLOPS: f64 = 2.0e9;

/// Analytic cost model bound to one [`HardwareSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    peak_flops: f64,
    hbm_bandwidth: f64,
    cpu_bandwidth: f64,
    link_bandwidth: f64,
    link_latency: f64,
}

impl CostModel {
    /// Builds a cost model for the given hardware.
    pub fn new(hw: &HardwareSpec) -> Self {
        CostModel {
            peak_flops: hw.gpu.peak_flops,
            hbm_bandwidth: hw.gpu.memory_bandwidth,
            cpu_bandwidth: hw.cpu.memory_bandwidth,
            link_bandwidth: hw.link.bandwidth,
            link_latency: hw.link.latency,
        }
    }

    /// GEMM utilization in `(0, 1]` as a smooth function of op size.
    ///
    /// `u = f / (f + F₀)` where `F₀` = `GEMM_SATURATION_FLOPS`: a
    /// 2·10⁹-FLOP op runs at 50% of peak, a 100× larger one at ~99%, a
    /// 100× smaller one at ~1% — matching the order-of-magnitude FLOPS
    /// collapse Figure 11 reports for sparse-gathered `QKᵀ`.
    pub fn gemm_utilization(&self, flops: f64) -> f64 {
        flops / (flops + GEMM_SATURATION_FLOPS)
    }

    /// Time for a dense `m×k · k×n` GEMM with `bytes_per_elem`-wide data.
    ///
    /// Roofline: `max(flop_time / utilization, memory_time)` plus launch
    /// overhead.
    pub fn gemm_time(&self, m: usize, k: usize, n: usize, bytes_per_elem: usize) -> f64 {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        if flops == 0.0 {
            return 0.0;
        }
        let bytes = ((m * k + k * n + m * n) * bytes_per_elem) as f64;
        let flop_time = flops / (self.peak_flops * self.gemm_utilization(flops));
        let mem_time = bytes / self.hbm_bandwidth;
        KERNEL_OVERHEAD + flop_time.max(mem_time)
    }

    /// Achieved FLOP/s of a GEMM under this model — the numbers printed
    /// inside the bars of Figure 11.
    pub fn gemm_achieved_flops(&self, m: usize, k: usize, n: usize, bytes_per_elem: usize) -> f64 {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let t = self.gemm_time(m, k, n, bytes_per_elem);
        if t == 0.0 {
            0.0
        } else {
            flops / t
        }
    }

    /// Time for a low-intensity vector op (reduction / element-wise over
    /// `bytes` of traffic), e.g. the local attention sum or softmax.
    pub fn vector_op_time(&self, bytes: u64) -> f64 {
        KERNEL_OVERHEAD + bytes as f64 / (self.hbm_bandwidth * VECTOR_BW_EFFICIENCY)
    }

    /// Achieved "ADD FLOP/s" of a reduction over `adds` additions moving
    /// `bytes` of data — Figure 11's ADD annotations.
    pub fn vector_achieved_flops(&self, adds: u64, bytes: u64) -> f64 {
        let t = self.vector_op_time(bytes);
        if t == 0.0 {
            0.0
        } else {
            adds as f64 / t
        }
    }

    /// Time to gather `rows` rows of `row_bytes` each from scattered GPU
    /// memory into a dense buffer (sparse-KV packing).
    pub fn gather_time(&self, rows: usize, row_bytes: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        KERNEL_OVERHEAD + (rows * row_bytes) as f64 / (self.hbm_bandwidth * GATHER_BW_EFFICIENCY)
    }

    /// Time to move `bytes` across the CPU–GPU link (either direction).
    /// Zero bytes cost nothing — no transfer is issued.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.link_latency + bytes as f64 / self.link_bandwidth
        }
    }

    /// Time for the CPU to repack `bytes` (e.g. assembling offloaded
    /// token rows before a host-to-device copy).
    pub fn cpu_pack_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cpu_bandwidth
    }

    /// Time to quantize or dequantize `bytes` of KV data on the GPU —
    /// element-wise, so bandwidth-bound.
    pub fn quantize_time(&self, bytes: u64) -> f64 {
        self.vector_op_time(bytes)
    }

    /// Bit-width-aware [`CostModel::quantize_time`]: the quantize (or
    /// dequantize) pass for `fp16_bytes` of working-precision KV headed
    /// to / coming from storage at `precision`. FP16 needs no pass and
    /// costs nothing; quantized widths pay a bandwidth-bound vector op
    /// over the *reduced* byte stream, matching the legacy charge of
    /// `quantize_time(compressed_bytes)`.
    pub fn quantize_time_at(&self, fp16_bytes: u64, precision: KvPrecision) -> f64 {
        match precision.is_quantized() {
            true => self.quantize_time(precision.bytes_of_fp16(fp16_bytes)),
            false => 0.0,
        }
    }

    /// Bit-width-aware [`CostModel::replica_transfer_time`]: hands
    /// `fp16_bytes` of working-precision KV between replicas stored at
    /// `precision` — both link legs and the host repack move only the
    /// reduced bytes, and a quantized handoff additionally pays the
    /// quantize pass on the sender and the dequantize pass on the
    /// receiver.
    pub fn replica_transfer_time_at(&self, fp16_bytes: u64, precision: KvPrecision) -> f64 {
        let wire = precision.bytes_of_fp16(fp16_bytes);
        self.replica_transfer_time(wire) + 2.0 * self.quantize_time_at(fp16_bytes, precision)
    }

    /// Time to hand a KV working set from one replica's HBM to
    /// another's. Single-GPU testbeds have no peer-to-peer fabric, so
    /// the transfer stages through host DRAM: a device-to-host leg, a
    /// CPU repack of the token rows, and a host-to-device leg — each
    /// link leg paying [`CostModel::transfer_time`]'s latency floor.
    /// Zero bytes cost nothing.
    pub fn replica_transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            2.0 * self.transfer_time(bytes) + self.cpu_pack_time(bytes)
        }
    }

    /// The link bandwidth in bytes/second (exposed for Eq. 3's `B`).
    pub fn link_bandwidth(&self) -> f64 {
        self.link_bandwidth
    }

    /// Peak GPU FLOP/s (exposed for reports).
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareSpec;

    fn model() -> CostModel {
        CostModel::new(&HardwareSpec::v100_32gb())
    }

    #[test]
    fn utilization_is_monotone_and_bounded() {
        let m = model();
        let mut last = 0.0;
        for exp in 0..15 {
            let u = m.gemm_utilization(10f64.powi(exp));
            assert!(u > last, "utilization must grow with op size");
            assert!(u < 1.0);
            last = u;
        }
        // Saturation point is 50% by construction.
        assert!((m.gemm_utilization(GEMM_SATURATION_FLOPS) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn large_gemm_is_compute_bound_small_is_overhead_bound() {
        let m = model();
        // Prefill-sized GEMM: high achieved FLOPS.
        let big = m.gemm_achieved_flops(8192, 4096, 4096, 2);
        // Single-token gathered GEMM: collapsed FLOPS (Figure 11).
        let small = m.gemm_achieved_flops(1, 128, 128, 2);
        assert!(big > 10.0 * small, "big {big:.3e} vs small {small:.3e}");
        assert!(big < m.peak_flops());
    }

    #[test]
    fn gemm_time_scales_with_size() {
        let m = model();
        let t1 = m.gemm_time(64, 4096, 4096, 2);
        let t2 = m.gemm_time(64, 4096, 8192, 2);
        assert!(t2 > t1);
        assert_eq!(m.gemm_time(0, 128, 128, 2), 0.0);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let m = model();
        assert_eq!(m.transfer_time(0), 0.0);
        let t1 = m.transfer_time(1);
        assert!(t1 >= 10.0e-6);
        // 20 GB at 20 GB/s ≈ 1 s.
        let t2 = m.transfer_time(20_000_000_000);
        assert!((t2 - 1.0).abs() < 0.01);
    }

    #[test]
    fn vector_ops_are_slower_per_byte_than_hbm_peak() {
        let m = model();
        let bytes = 1_000_000_000u64;
        let t = m.vector_op_time(bytes);
        let peak_time = bytes as f64 / 900.0e9;
        assert!(t > peak_time, "vector ops must run below peak bandwidth");
    }

    #[test]
    fn local_sum_can_outweigh_small_qkt() {
        // Figure 11: "the local sum could spend more time than QKᵀ".
        // A 1-token query against 26 sparse tokens (b=64 heads folded in)
        // vs a reduction over the attention-weight history.
        let m = model();
        let qkt = m.gemm_time(64, 128, 26, 2);
        let history_bytes = 64 * 4 * 1024 * 2; // batch × window × seq × fp16
        let local_sum = m.vector_op_time(history_bytes as u64);
        assert!(local_sum > 0.0 && qkt > 0.0);
        // Not asserting strict dominance at every size — just that they
        // are the same order, i.e. the sum is not negligible.
        assert!(local_sum * 10.0 > qkt);
    }

    #[test]
    fn gather_time_proportional_to_rows() {
        let m = model();
        assert_eq!(m.gather_time(0, 1024), 0.0);
        let t1 = m.gather_time(10_000, 8192);
        let t2 = m.gather_time(20_000, 8192);
        assert!(
            t2 > t1 * 1.5,
            "doubling rows must nearly double time once past launch overhead"
        );
    }

    #[test]
    fn h100_is_faster_than_v100() {
        let v = CostModel::new(&HardwareSpec::v100_32gb());
        let h = CostModel::new(&HardwareSpec::h100_80gb());
        assert!(h.gemm_time(4096, 4096, 4096, 2) < v.gemm_time(4096, 4096, 4096, 2));
        // But the link is the same 20 GB/s on both testbeds.
        assert_eq!(h.transfer_time(1 << 30), v.transfer_time(1 << 30));
    }

    #[test]
    fn quantize_time_matches_vector_cost() {
        let m = model();
        assert_eq!(m.quantize_time(1024), m.vector_op_time(1024));
    }

    #[test]
    fn precision_variants_reduce_to_legacy_at_fp16_and_int8() {
        let m = model();
        let bytes = 1u64 << 26;
        // FP16: identical to the unscaled calls, zero quantize cost.
        assert_eq!(m.quantize_time_at(bytes, KvPrecision::Fp16), 0.0);
        assert_eq!(
            m.replica_transfer_time_at(bytes, KvPrecision::Fp16),
            m.replica_transfer_time(bytes)
        );
        // INT8: exactly the legacy "halve the bytes, pay a quantize
        // pass over the compressed stream" pricing.
        assert_eq!(
            m.quantize_time_at(bytes, KvPrecision::Int8),
            m.quantize_time(bytes / 2)
        );
    }

    #[test]
    fn lower_precision_is_monotone_cheaper_on_the_link() {
        let m = model();
        let bytes = 1u64 << 26;
        let h16 = m.replica_transfer_time_at(bytes, KvPrecision::Fp16);
        let h8 = m.replica_transfer_time_at(bytes, KvPrecision::Int8);
        let h4 = m.replica_transfer_time_at(bytes, KvPrecision::Int4);
        // At handoff scale the link dominates the added quantize pass.
        assert!(h16 > h8 && h8 > h4);
    }

    #[test]
    fn replica_transfer_stages_through_host() {
        let m = model();
        assert_eq!(m.replica_transfer_time(0), 0.0);
        let bytes = 1u64 << 30;
        let t = m.replica_transfer_time(bytes);
        // Two link legs plus the host repack — strictly more than a
        // single direct transfer, with both latency floors included.
        assert!(t > 2.0 * m.transfer_time(bytes));
        assert!((t - (2.0 * m.transfer_time(bytes) + m.cpu_pack_time(bytes))).abs() < 1e-15);
    }
}
