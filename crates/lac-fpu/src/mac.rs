//! The PE's fused multiply-accumulate unit (§3.2, §A.3.1).

use crate::accumulator::ExtendedAccumulator;
use crate::pipeline::Pipeline;

/// Arithmetic precision of the datapath. The same FMAC hardware is assumed
/// reconfigurable between the two (the paper cites \[132\]); single precision
/// rounds every operation through `f32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    Single,
    Double,
}

impl Precision {
    /// Operand width in bytes (drives bandwidth numbers in the models).
    pub fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Round `x` to this precision (single rounds through `f32`).
    pub(crate) fn round(self, x: f64) -> f64 {
        match self {
            Precision::Single => x as f32 as f64,
            Precision::Double => x,
        }
    }
}

/// Static configuration of the PE floating-point datapath.
#[derive(Clone, Copy, Debug)]
pub struct FpuConfig {
    /// MAC pipeline depth `p` (the paper uses 5–9; TRSM stacking assumes 8).
    pub pipeline_depth: usize,
    /// SFU (divide/square-root) latency `q` in cycles.
    pub sfu_latency: usize,
    pub precision: Precision,
    /// Extended-exponent accumulator (§A.2) present?
    pub exponent_extension: bool,
}

impl Default for FpuConfig {
    fn default() -> Self {
        Self {
            pipeline_depth: 5,
            sfu_latency: 13,
            precision: Precision::Double,
            exponent_extension: false,
        }
    }
}

/// One in-flight multiply-accumulate: `acc += a * b` (or an externally
/// supplied addend `c + a*b` when `into_acc` is false).
#[derive(Clone, Copy, Debug)]
struct MacOp {
    a: f64,
    b: f64,
    /// `None` ⇒ accumulate into the local accumulator;
    /// `Some(c)` ⇒ produce `c ± a·b` to the result latch.
    addend: Option<f64>,
    /// When true the product is subtracted (`c - a·b`, or `acc -= a·b`).
    negate: bool,
}

/// The local accumulator register.
#[derive(Clone, Copy, Debug)]
enum Accumulator {
    /// Without the exponent extension: a plain `f64`, rounded to the
    /// configured precision after every accumulation, so overflow behaves
    /// like ordinary arithmetic (the baseline §A.2 fixes).
    Narrow(f64),
    /// With the exponent extension: the wide delayed-normalization
    /// register, normalized only when read.
    Wide(ExtendedAccumulator),
}

/// Timing- and range-accurate FMAC model with a local accumulator.
///
/// Semantics follow the paper: throughput one MAC per cycle, results
/// *visible in the accumulator* the cycle after retiring from the `p`-stage
/// pipeline, and, with the exponent extension, accumulation chained
/// without intermediate normalization.
#[derive(Clone, Debug)]
pub struct MacUnit {
    cfg: FpuConfig,
    pipe: Pipeline<MacOp>,
    acc: Accumulator,
    /// Result latch for non-accumulator ops (`c + a·b`).
    result: Option<f64>,
    /// Lifetime op count (feeds the energy model).
    pub ops_issued: u64,
}

impl MacUnit {
    pub fn new(cfg: FpuConfig) -> Self {
        let mut unit = Self {
            pipe: Pipeline::new(cfg.pipeline_depth),
            cfg,
            acc: Accumulator::Narrow(0.0),
            result: None,
            ops_issued: 0,
        };
        unit.load_acc(0.0);
        unit
    }

    pub fn config(&self) -> &FpuConfig {
        &self.cfg
    }

    fn round(&self, x: f64) -> f64 {
        self.cfg.precision.round(x)
    }

    /// Load the accumulator (the `C` preload over the column bus).
    pub fn load_acc(&mut self, v: f64) {
        let v = self.round(v);
        self.acc = if self.cfg.exponent_extension {
            Accumulator::Wide(ExtendedAccumulator::from_f64(v))
        } else {
            Accumulator::Narrow(v)
        };
    }

    /// Read the accumulator, normalizing (the stream-out step).
    pub fn read_acc(&self) -> f64 {
        match self.acc {
            Accumulator::Narrow(v) => self.round(v),
            Accumulator::Wide(w) => self.round(w.normalize()),
        }
    }

    /// The accumulator in the extended format (the read port the §A.2
    /// datapath exposes to the sequencer). Without the exponent extension
    /// this is the narrow register's value, split into that format.
    pub fn acc_wide(&self) -> ExtendedAccumulator {
        match self.acc {
            Accumulator::Narrow(v) => ExtendedAccumulator::from_f64(v),
            Accumulator::Wide(w) => w,
        }
    }

    /// Square root of the accumulator computed in the *wide* exponent space
    /// (§A.2): `√(m·2^e) = √(m·2^(e−2h))·2^h` with `h = ⌊e/2⌋`, so a sum of
    /// squares that exceeds binary64 range still yields a finite norm. Only
    /// meaningful with the exponent extension; without it this equals
    /// `read_acc().sqrt()`.
    pub fn read_acc_sqrt(&self) -> f64 {
        let acc = self.acc_wide();
        let e = acc.exponent();
        let h = e.div_euclid(2);
        let m = acc.normalize_with_exp_shift(-2 * h);
        self.round(m.sqrt() * 2f64.powi(h))
    }

    /// Issue `acc += a*b` this cycle. Err on double-issue.
    pub fn issue_mac(&mut self, a: f64, b: f64) -> Result<(), ()> {
        self.issue_mac_signed(a, b, false)
    }

    /// Issue `acc ±= a*b` (negate ⇒ subtract the product).
    pub fn issue_mac_signed(&mut self, a: f64, b: f64, negate: bool) -> Result<(), ()> {
        self.pipe
            .issue(MacOp {
                a: self.round(a),
                b: self.round(b),
                addend: None,
                negate,
            })
            .map_err(|_| ())?;
        self.ops_issued += 1;
        Ok(())
    }

    /// Issue a free-standing fused op `c + a*b`; the result appears in the
    /// result latch (`take_result`) after `p` cycles.
    pub fn issue_fma(&mut self, a: f64, b: f64, c: f64) -> Result<(), ()> {
        self.issue_fma_signed(a, b, c, false)
    }

    /// Issue `c ± a*b` (negate ⇒ fused multiply-subtract `c - a·b`).
    pub fn issue_fma_signed(&mut self, a: f64, b: f64, c: f64, negate: bool) -> Result<(), ()> {
        self.pipe
            .issue(MacOp {
                a: self.round(a),
                b: self.round(b),
                addend: Some(self.round(c)),
                negate,
            })
            .map_err(|_| ())?;
        self.ops_issued += 1;
        Ok(())
    }

    /// Advance one cycle; retire at most one op.
    pub fn step(&mut self) {
        if let Some(op) = self.pipe.step() {
            let a = if op.negate { -op.a } else { op.a };
            match op.addend {
                None => self.apply_retired_mac(a, op.b),
                Some(c) => self.result = Some(self.apply_retired_fma(a, op.b, c)),
            }
        }
    }

    /// Apply the retirement arithmetic of an accumulating MAC directly:
    /// `acc += a_signed * b`, with the same accumulator behavior as
    /// [`MacUnit::step`]: with the exponent extension, an exact product
    /// added to the wide register; without it, one rounded `f64` add.
    /// Operands must already be rounded to
    /// the configured precision and carry the product sign (the pipeline
    /// rounds at issue and signs at retire; the two commute because
    /// negation is exact). This is the retire door the decode-once
    /// compiled backend in `lac-sim` uses to skip the pipeline queue while
    /// staying bit-identical to the interpreter.
    #[inline]
    pub fn apply_retired_mac(&mut self, a_signed: f64, b: f64) {
        let precision = self.cfg.precision;
        match &mut self.acc {
            Accumulator::Wide(w) => w.mac(a_signed, b),
            Accumulator::Narrow(v) => *v = precision.round(*v + a_signed * b),
        }
    }

    /// The retirement arithmetic of a free-standing FMA: `c + a_signed*b`
    /// rounded to the configured precision. Same contract as
    /// [`MacUnit::apply_retired_mac`]: operands pre-rounded, sign
    /// pre-applied.
    #[inline]
    pub fn apply_retired_fma(&self, a_signed: f64, b: f64, c: f64) -> f64 {
        self.round(c + a_signed * b)
    }

    /// Drain the pipeline (advance until empty), returning cycles spent.
    pub fn drain(&mut self) -> usize {
        let mut cycles = 0;
        while !self.pipe.is_empty() {
            self.step();
            cycles += 1;
        }
        cycles
    }

    /// Take the latched non-accumulator result, if one has retired.
    pub fn take_result(&mut self) -> Option<f64> {
        self.result.take()
    }

    /// True if no work is in flight.
    pub fn idle(&self) -> bool {
        self.pipe.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::class_value;
    use proptest::prelude::*;

    /// The narrow accumulator computed through the wide register: split on
    /// every load and retirement, assembled on every read. The plain `f64`
    /// register must match it bit for bit.
    struct SplitAssembleOracle {
        precision: Precision,
        acc: ExtendedAccumulator,
    }

    impl SplitAssembleOracle {
        fn load(&mut self, v: f64) {
            self.acc = ExtendedAccumulator::from_f64(self.precision.round(v));
        }

        fn retire(&mut self, a_signed: f64, b: f64) {
            let v = self.precision.round(self.acc.normalize() + a_signed * b);
            self.acc = ExtendedAccumulator::from_f64(v);
        }

        fn read(&self) -> f64 {
            self.precision.round(self.acc.normalize())
        }

        fn read_sqrt(&self) -> f64 {
            let h = self.acc.exponent().div_euclid(2);
            let m = self.acc.normalize_with_exp_shift(-2 * h);
            self.precision.round(m.sqrt() * 2f64.powi(h))
        }
    }

    /// Equal bits, or both NaN (a NaN's payload is the host's business).
    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The narrow `f64` register reproduces the split/assemble path it
        // replaced: loads, retirements (direct and through the pipeline),
        // reads, square-root reads and the wide view, over normal,
        // subnormal, ±0, ±inf and NaN operands in both precisions.
        #[test]
        fn narrow_register_matches_split_assemble(
            single in any::<bool>(),
            script in prop::collection::vec(
                (any::<u8>(), (any::<u8>(), any::<u64>()), (any::<u8>(), any::<u64>())),
                1..24,
            ),
        ) {
            let precision = if single { Precision::Single } else { Precision::Double };
            let mut mac = MacUnit::new(FpuConfig { precision, ..Default::default() });
            let mut oracle = SplitAssembleOracle { precision, acc: ExtendedAccumulator::new() };
            for (i, &(op, (ca, ba), (cb, bb))) in script.iter().enumerate() {
                let (a, b) = (class_value(ca, ba), class_value(cb, bb));
                let (a, b) = (precision.round(a), precision.round(b));
                match op % 3 {
                    0 => {
                        mac.load_acc(a);
                        oracle.load(a);
                    }
                    1 => {
                        mac.apply_retired_mac(a, b);
                        oracle.retire(a, b);
                    }
                    _ => {
                        mac.issue_mac_signed(a, b, op & 4 != 0).unwrap();
                        mac.drain();
                        oracle.retire(if op & 4 != 0 { -a } else { a }, b);
                    }
                }
                prop_assert!(same(mac.read_acc(), oracle.read()), "read_acc after op {}", i);
                prop_assert!(
                    same(mac.read_acc_sqrt(), oracle.read_sqrt()),
                    "read_acc_sqrt after op {}", i
                );
                let wide = mac.acc_wide();
                prop_assert_eq!(wide.exponent(), oracle.acc.exponent(), "exponent after op {}", i);
                prop_assert!(same(wide.normalize(), oracle.acc.normalize()), "wide after op {}", i);
            }
        }
    }

    #[test]
    fn accumulates_dot_product() {
        let mut mac = MacUnit::new(FpuConfig::default());
        mac.load_acc(0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [5.0, 6.0, 7.0, 8.0];
        for (x, y) in xs.iter().zip(&ys) {
            mac.issue_mac(*x, *y).unwrap();
            mac.step();
        }
        mac.drain();
        assert_eq!(mac.read_acc(), 70.0);
        assert_eq!(mac.ops_issued, 4);
    }

    #[test]
    fn pipeline_latency_respected() {
        let cfg = FpuConfig {
            pipeline_depth: 4,
            ..Default::default()
        };
        let mut mac = MacUnit::new(cfg);
        mac.load_acc(0.0);
        mac.issue_mac(2.0, 3.0).unwrap();
        for _ in 0..3 {
            mac.step();
            assert_eq!(mac.read_acc(), 0.0, "not yet retired");
        }
        mac.step();
        assert_eq!(mac.read_acc(), 6.0);
    }

    #[test]
    fn fma_result_latch() {
        let mut mac = MacUnit::new(FpuConfig {
            pipeline_depth: 2,
            ..Default::default()
        });
        mac.issue_fma(3.0, 4.0, 1.0).unwrap();
        mac.step();
        assert!(mac.take_result().is_none());
        mac.step();
        assert_eq!(mac.take_result(), Some(13.0));
        assert!(mac.take_result().is_none(), "latch cleared after take");
    }

    #[test]
    fn single_precision_rounds() {
        let cfg = FpuConfig {
            precision: Precision::Single,
            ..Default::default()
        };
        let mut mac = MacUnit::new(cfg);
        mac.load_acc(0.0);
        mac.issue_mac(1.0e-8, 1.0).unwrap();
        mac.drain();
        mac.issue_mac(1.0, 1.0).unwrap();
        mac.drain();
        // 1 + 1e-8 rounds to 1 in f32
        assert_eq!(mac.read_acc(), 1.0);
    }

    #[test]
    fn exponent_extension_survives_square_overflow() {
        let base = FpuConfig {
            exponent_extension: false,
            ..Default::default()
        };
        let ext = FpuConfig {
            exponent_extension: true,
            ..Default::default()
        };
        // Without extension: 1e200² overflows the accumulator.
        let mut m1 = MacUnit::new(base);
        m1.load_acc(0.0);
        m1.issue_mac(1e200, 1e200).unwrap();
        m1.drain();
        assert!(m1.read_acc().is_infinite());
        // With extension the wide accumulator holds it; read_acc only
        // overflows at final normalization, which the norm kernel avoids by
        // halving the exponent before the square root.
        let mut m2 = MacUnit::new(ext);
        m2.load_acc(0.0);
        m2.issue_mac(1e200, 1e200).unwrap();
        m2.drain();
        assert!(m2.acc_wide().exponent() > 1000);
    }

    #[test]
    fn double_issue_rejected() {
        let mut mac = MacUnit::new(FpuConfig::default());
        mac.issue_mac(1.0, 1.0).unwrap();
        assert!(mac.issue_mac(1.0, 1.0).is_err());
    }
}
