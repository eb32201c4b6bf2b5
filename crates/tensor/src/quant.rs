//! KV compression (paper §V-B, Eq. 7): per-row fake quantization for
//! the functional path and per-region byte pricing for the performance
//! path.
//!
//! ALISA stores KV tensors at INT8 *in memory* and dequantizes them back
//! to the working precision for compute, purely to shrink the bytes that
//! cross the CPU–GPU link. Both halves of that live here:
//!
//! * [`fake_quantize_row`] is what `TinyTransformer::decode_step` runs
//!   under `GenerationConfig::kv_quant`: each new K and V row is
//!   quantized over its own min/max and dequantized in place, so the
//!   accuracy figures see the rounding a stored row would carry. The
//!   paper quantizes channel-wise after \[9\] (one scale per hidden
//!   channel across tokens); that grain is not implemented.
//! * [`PrecisionPolicy`] is what the schedulers, the serving engine and
//!   the cost model call: it assigns a [`KvPrecision`] to each region
//!   KV leaves the GPU through (the CPU remainder, its cold tail,
//!   replica handoffs) and turns FP16-wide byte counts into stored
//!   bytes. The GPU hot window is always FP16. It prices bytes only; no
//!   codes are materialized.
//!
//! The paper states Eq. 7 as `x_quant = round(x/λ + z)`, `x = λ(x_quant − z)`
//! with `λ = (max − min)/(2ᵇ − 1)` and `z = round(−2ᵇ/(max − min))`; the
//! zero-point expression as printed does not map `min` to the bottom of
//! the integer range (it appears to be a typesetting slip), so we use the
//! standard asymmetric affine zero point `z = round(−min/λ)`, which maps
//! `min` to code 0 and keeps every decoded value within one step `λ` of
//! its input.

use serde::{Deserialize, Serialize};

/// Number of bits used to store each quantized KV element.
///
/// The paper evaluates INT8 (its default, §V-B) and cites \[14\] for OPT
/// remaining accurate down to INT4, which we expose as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantBits {
    /// 8-bit integers — the paper's KV-compression setting.
    Int8,
    /// 4-bit integers — the scaling-law extension (two values per byte).
    Int4,
}

impl QuantBits {
    /// Number of bits per stored element.
    pub fn bits(self) -> u32 {
        match self {
            QuantBits::Int8 => 8,
            QuantBits::Int4 => 4,
        }
    }

    /// Number of distinct quantization levels (`2ᵇ − 1` usable steps).
    pub fn levels(self) -> u32 {
        (1u32 << self.bits()) - 1
    }
}

impl std::fmt::Display for QuantBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantBits::Int8 => write!(f, "INT8"),
            QuantBits::Int4 => write!(f, "INT4"),
        }
    }
}

/// Storage precision of KV bytes in one cache-state region: the working
/// FP16, or an integer width from [`QuantBits`].
///
/// This is the unit the per-region [`PrecisionPolicy`] assigns. FP16 is
/// "unquantized": no codebook, no quantize/dequantize pass, bytes move
/// at full width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KvPrecision {
    /// Working precision — 2 bytes per element, no quantization pass.
    Fp16,
    /// INT8 (the paper's §V-B default for offloaded KV).
    Int8,
    /// INT4 (the paper's cited \[14\] extension; two codes per byte).
    Int4,
}

impl KvPrecision {
    /// Bits per stored element.
    pub fn bits(self) -> u32 {
        match self {
            KvPrecision::Fp16 => 16,
            KvPrecision::Int8 => 8,
            KvPrecision::Int4 => 4,
        }
    }

    /// The integer quantizer behind this precision, or `None` for FP16.
    pub fn quant_bits(self) -> Option<QuantBits> {
        match self {
            KvPrecision::Fp16 => None,
            KvPrecision::Int8 => Some(QuantBits::Int8),
            KvPrecision::Int4 => Some(QuantBits::Int4),
        }
    }

    /// Whether storing at this precision requires a quantize pass (and
    /// reading it back a dequantize pass).
    pub fn is_quantized(self) -> bool {
        self != KvPrecision::Fp16
    }

    /// Bytes occupied by KV data that is `fp16_bytes` wide at working
    /// precision: FP16 passes through, INT8 halves, INT4 quarters.
    /// Integer division, so INT8 reproduces the legacy `bytes / 2`
    /// compression accounting bit-for-bit.
    pub fn bytes_of_fp16(self, fp16_bytes: u64) -> u64 {
        match self {
            KvPrecision::Fp16 => fp16_bytes,
            KvPrecision::Int8 => fp16_bytes / 2,
            KvPrecision::Int4 => fp16_bytes / 4,
        }
    }
}

impl std::fmt::Display for KvPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvPrecision::Fp16 => write!(f, "FP16"),
            KvPrecision::Int8 => write!(f, "INT8"),
            KvPrecision::Int4 => write!(f, "INT4"),
        }
    }
}

/// Per-cache-state-region KV precision: which [`KvPrecision`] the KV
/// that leaves the GPU stores or ships at. The GPU hot window, which
/// attention reads every step, is FP16 under every policy.
///
/// This replaces the old `compression: bool` flag everywhere bytes are
/// priced (cost model, token store, schedulers, admission, handoffs).
/// The two legacy operating points are exact special cases:
///
/// * [`PrecisionPolicy::fp16`] (FP16 everywhere) prices identically to
///   the old `compression: false`,
/// * [`PrecisionPolicy::int8`] (CPU remainder at INT8, everything else
///   FP16) prices identically to the old `compression: true` flat
///   halving of link bytes.
///
/// Beyond them, [`PrecisionPolicy::mixed`] pushes the CPU remainder to
/// INT8 with an INT4 cold tail and quantizes replica handoffs — the
/// CSR-style "hot tokens high precision, cold tokens few bits"
/// operating point.
///
/// ```
/// use alisa_tensor::quant::{KvPrecision, PrecisionPolicy};
///
/// let mixed = PrecisionPolicy::mixed();
/// assert_eq!(mixed.cold, KvPrecision::Int4);
/// assert_eq!(mixed.label(), "gpu:FP16 cpu:INT8 cold:INT4@0.50 ho:INT8");
/// // 1 MiB of FP16-wide CPU KV stores at 3/8 the bytes under
/// // INT8 + half-INT4-cold-tail: 0.5·(1/2) + 0.5·(1/4).
/// assert_eq!(mixed.cpu_bytes(1 << 20), 384 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionPolicy {
    /// Precision of the CPU-resident sparse remainder (its warm share).
    pub cpu: KvPrecision,
    /// Precision of the coldest `cold_frac` share of the CPU remainder.
    pub cold: KvPrecision,
    /// Fraction of CPU-resident bytes in the cold tail, in `[0, 1]`.
    /// Zero disables the tail (the whole remainder stores at `cpu`).
    pub cold_frac: f64,
    /// Precision of in-flight replica handoff bytes.
    pub handoff: KvPrecision,
}

impl PrecisionPolicy {
    /// FP16 in every region — byte-identical to the legacy
    /// `compression: false` pricing.
    pub fn fp16() -> Self {
        PrecisionPolicy {
            cpu: KvPrecision::Fp16,
            cold: KvPrecision::Fp16,
            cold_frac: 0.0,
            handoff: KvPrecision::Fp16,
        }
    }

    /// The paper's §V-B operating point: CPU-resident KV at INT8,
    /// handoffs at FP16 — byte-identical to the legacy
    /// `compression: true` pricing (a flat halving of offload link
    /// bytes).
    pub fn int8() -> Self {
        PrecisionPolicy {
            cpu: KvPrecision::Int8,
            cold: KvPrecision::Int8,
            ..PrecisionPolicy::fp16()
        }
    }

    /// Mixed precision: CPU remainder INT8 with half of it in an INT4
    /// cold tail, handoffs INT8.
    pub fn mixed() -> Self {
        PrecisionPolicy {
            cpu: KvPrecision::Int8,
            cold: KvPrecision::Int4,
            cold_frac: 0.5,
            handoff: KvPrecision::Int8,
        }
    }

    /// The legacy boolean's mapping: `false` → [`PrecisionPolicy::fp16`],
    /// `true` → [`PrecisionPolicy::int8`].
    pub fn from_legacy_compression(compression: bool) -> Self {
        if compression {
            PrecisionPolicy::int8()
        } else {
            PrecisionPolicy::fp16()
        }
    }

    /// Overrides the CPU-resident (warm-share) precision.
    pub fn with_cpu(mut self, p: KvPrecision) -> Self {
        self.cpu = p;
        self
    }

    /// Configures the cold tail: a `frac` share of CPU-resident bytes
    /// stored at `p`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `[0, 1]`.
    pub fn with_cold_tail(mut self, frac: f64, p: KvPrecision) -> Self {
        assert!((0.0..=1.0).contains(&frac), "cold_frac must be in [0, 1]");
        self.cold_frac = frac;
        self.cold = p;
        self
    }

    /// Overrides the handoff precision.
    pub fn with_handoff(mut self, p: KvPrecision) -> Self {
        self.handoff = p;
        self
    }

    /// Bytes stored on the CPU for KV that is `fp16_bytes` wide at
    /// working precision: the warm share at `cpu` precision plus the
    /// `cold_frac` tail at `cold` precision. With no cold tail this is
    /// a single integer scaling, preserving the legacy arithmetic
    /// exactly.
    pub fn cpu_bytes(&self, fp16_bytes: u64) -> u64 {
        if self.cold_frac == 0.0 {
            return self.cpu.bytes_of_fp16(fp16_bytes);
        }
        let cold_fp16 = ((fp16_bytes as f64 * self.cold_frac).round() as u64).min(fp16_bytes);
        let warm_fp16 = fp16_bytes - cold_fp16;
        self.cpu.bytes_of_fp16(warm_fp16) + self.cold.bytes_of_fp16(cold_fp16)
    }

    /// Bytes that cross the link when `fp16_bytes` of working-precision
    /// KV is *reloaded* from the CPU remainder back to the GPU.
    ///
    /// Reloads are re-selected tokens, and the cold tail holds the
    /// tokens least likely to be re-selected — so reload traffic moves
    /// at the warm-share `cpu` width, not the cold-blended
    /// [`PrecisionPolicy::cpu_bytes`] average. With no cold tail the
    /// two widths coincide.
    pub fn cpu_reload_bytes(&self, fp16_bytes: u64) -> u64 {
        self.cpu.bytes_of_fp16(fp16_bytes)
    }

    /// Bytes that cross the fabric when `fp16_bytes` of working-precision
    /// KV is handed between replicas.
    pub fn handoff_bytes(&self, fp16_bytes: u64) -> u64 {
        self.handoff.bytes_of_fp16(fp16_bytes)
    }

    /// Whether the CPU-resident remainder involves any quantization
    /// (warm share or cold tail) — i.e. whether offload traffic pays a
    /// quantize/dequantize pass.
    pub fn quantizes_cpu(&self) -> bool {
        self.cpu.is_quantized() || (self.cold_frac > 0.0 && self.cold.is_quantized())
    }

    /// Compact figure label, e.g. `gpu:FP16 cpu:INT8 cold:INT4@0.50 ho:INT8`.
    pub fn label(&self) -> String {
        let mut s = format!("gpu:FP16 cpu:{}", self.cpu);
        if self.cold_frac > 0.0 {
            s.push_str(&format!(" cold:{}@{:.2}", self.cold, self.cold_frac));
        }
        if self.handoff != KvPrecision::Fp16 {
            s.push_str(&format!(" ho:{}", self.handoff));
        }
        s
    }
}

impl std::fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Simulates storing one KV row at reduced precision: quantizes the row
/// over its own min/max with Eq. 7 and immediately dequantizes, in place
/// ("fake quantization"). Each element moves by at most one step
/// `λ = (max − min)/(2ᵇ − 1)`; a constant row is left exact.
///
/// This is the one quantizer the repository runs. The functional path
/// stores each token's K/V row the moment it is produced, so the grain is
/// one scale per token row, not the paper's one scale per channel across
/// tokens. Byte counts for the performance path come from
/// [`PrecisionPolicy`], which never quantizes values.
pub fn fake_quantize_row(row: &mut [f32], bits: QuantBits) {
    if row.is_empty() {
        return;
    }
    let levels = bits.levels() as f32;
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in row.iter() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        return; // constant (or empty/NaN) row stores exactly
    }
    let scale = (hi - lo) / levels;
    let zero_point = (-lo / scale).round();
    for v in row.iter_mut() {
        let code = (*v / scale + zero_point).round().clamp(0.0, levels);
        *v = scale * (code - zero_point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_display() {
        assert_eq!(QuantBits::Int8.levels(), 255);
        assert_eq!(QuantBits::Int4.levels(), 15);
        assert_eq!(QuantBits::Int8.to_string(), "INT8");
    }

    #[test]
    fn fake_quantize_row_bounds_error() {
        let mut row = vec![0.31, -0.87, 0.44, 0.02, -0.11, 0.93];
        let orig = row.clone();
        fake_quantize_row(&mut row, QuantBits::Int8);
        let step = (0.93f32 - (-0.87)) / 255.0;
        for (a, b) in orig.iter().zip(&row) {
            assert!((a - b).abs() <= step + 1e-6);
        }
    }

    #[test]
    fn fake_quantize_constant_and_empty_rows_are_exact() {
        let mut row = vec![7.0, 7.0, 7.0];
        fake_quantize_row(&mut row, QuantBits::Int4);
        assert_eq!(row, vec![7.0, 7.0, 7.0]);
        let mut empty: [f32; 0] = [];
        fake_quantize_row(&mut empty, QuantBits::Int8);
    }

    #[test]
    fn fake_quantize_int4_noisier_than_int8() {
        let base: Vec<f32> = (0..32)
            .map(|i| ((i * 37) % 17) as f32 * 0.173 - 1.3)
            .collect();
        let err = |bits| {
            let mut r = base.clone();
            fake_quantize_row(&mut r, bits);
            r.iter()
                .zip(&base)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(QuantBits::Int4) > err(QuantBits::Int8));
    }

    #[test]
    fn precision_bits_and_bytes() {
        assert_eq!(KvPrecision::Fp16.bits(), 16);
        assert_eq!(KvPrecision::Int8.bits(), 8);
        assert_eq!(KvPrecision::Int4.bits(), 4);
        assert_eq!(KvPrecision::Fp16.quant_bits(), None);
        assert_eq!(KvPrecision::Int4.quant_bits(), Some(QuantBits::Int4));
        assert_eq!(KvPrecision::Fp16.bytes_of_fp16(1001), 1001);
        assert_eq!(KvPrecision::Int8.bytes_of_fp16(1001), 500);
        assert_eq!(KvPrecision::Int4.bytes_of_fp16(1001), 250);
        assert!(!KvPrecision::Fp16.is_quantized());
        assert!(KvPrecision::Int4.is_quantized());
    }

    #[test]
    fn legacy_policies_reproduce_boolean_pricing() {
        let fp16 = PrecisionPolicy::from_legacy_compression(false);
        let int8 = PrecisionPolicy::from_legacy_compression(true);
        for bytes in [0u64, 1, 7, 1024, 999_999] {
            assert_eq!(fp16.cpu_bytes(bytes), bytes);
            assert_eq!(int8.cpu_bytes(bytes), bytes / 2, "legacy flat halving");
            // Legacy code never repriced handoff bytes.
            assert_eq!(int8.handoff_bytes(bytes), bytes);
        }
        assert!(!fp16.quantizes_cpu());
        assert!(int8.quantizes_cpu());
    }

    #[test]
    fn mixed_policy_blends_cold_tail() {
        let mixed = PrecisionPolicy::mixed();
        assert_eq!(mixed.cpu, KvPrecision::Int8);
        assert_eq!(mixed.cold, KvPrecision::Int4);
        assert_eq!(mixed.handoff, KvPrecision::Int8);
        // Half at 1/2 width + half at 1/4 width = 3/8 of FP16.
        assert_eq!(mixed.cpu_bytes(1 << 20), 384 * 1024);
        // A reloaded token is re-selected, so warm: it ships at INT8.
        assert_eq!(mixed.cpu_reload_bytes(1 << 20), 1 << 19);
        assert_eq!(mixed.handoff_bytes(1 << 20), 1 << 19);
        assert!(mixed.quantizes_cpu());
        assert!(mixed.label().contains("cold:INT4"));
    }

    #[test]
    fn cold_tail_builder_validates_and_applies() {
        let p = PrecisionPolicy::fp16().with_cold_tail(1.0, KvPrecision::Int4);
        assert_eq!(p.cpu_bytes(1000), 250, "full tail stores everything INT4");
        let q = PrecisionPolicy::int8().with_handoff(KvPrecision::Int4);
        assert_eq!(q.handoff_bytes(1000), 250);
    }

    #[test]
    #[should_panic(expected = "cold_frac")]
    fn cold_tail_rejects_bad_fraction() {
        let _ = PrecisionPolicy::fp16().with_cold_tail(1.5, KvPrecision::Int4);
    }
}
