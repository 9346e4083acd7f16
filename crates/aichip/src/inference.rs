//! Int8 quantized inference on a fault-injectable systolic-array model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault injected into one processing element of the behavioural
/// systolic array: a stuck bit in the PE's product term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeFault {
    /// PE row (partition of the output neurons: `out_idx % rows`).
    pub row: usize,
    /// PE column (partition of the inputs: `in_idx % cols`).
    pub col: usize,
    /// Which bit of the 16-bit product is stuck.
    pub bit: u8,
    /// Stuck value.
    pub stuck: bool,
}

/// Behavioural model of an output-stationary systolic MAC array.
///
/// A matmul of arbitrary size is tiled onto the `rows x cols` physical
/// array; multiply-accumulate for output `o` and input `i` executes on PE
/// `(o % rows, i % cols)`, matching the weight/activation streaming of
/// the gate-level array. A [`PeFault`] corrupts every product computed by
/// that PE.
#[derive(Debug, Clone)]
pub struct SystolicModel {
    /// Physical PE rows.
    pub rows: usize,
    /// Physical PE columns.
    pub cols: usize,
    fault: Option<PeFault>,
}

impl SystolicModel {
    /// A fault-free array.
    pub fn new(rows: usize, cols: usize) -> SystolicModel {
        assert!(rows > 0 && cols > 0);
        SystolicModel {
            rows,
            cols,
            fault: None,
        }
    }

    /// Injects `fault` (replacing any previous one).
    pub fn with_fault(mut self, fault: PeFault) -> SystolicModel {
        assert!(fault.row < self.rows && fault.col < self.cols);
        assert!(fault.bit < 16);
        self.fault = Some(fault);
        self
    }

    /// One multiply on PE `(row, col)`: `a * w` with the fault applied to
    /// the 16-bit product.
    #[inline]
    fn mac(&self, row: usize, col: usize, a: i8, w: i8) -> i32 {
        let mut p = (a as i32) * (w as i32);
        if let Some(f) = self.fault {
            if f.row == row && f.col == col {
                // Stuck bit in the 16-bit two's-complement product.
                let bits = (p as i16) as u16;
                let bits = if f.stuck {
                    bits | (1 << f.bit)
                } else {
                    bits & !(1 << f.bit)
                };
                p = bits as i16 as i32;
            }
        }
        p
    }

    /// Matrix-vector product `w * x` with i32 accumulation, tiled onto the
    /// array.
    pub fn matvec(&self, w: &[Vec<i8>], x: &[i8]) -> Vec<i32> {
        w.iter()
            .enumerate()
            .map(|(o, row)| {
                debug_assert_eq!(row.len(), x.len());
                row.iter()
                    .zip(x)
                    .enumerate()
                    .map(|(i, (&wv, &xv))| self.mac(o % self.rows, i % self.cols, xv, wv))
                    .sum()
            })
            .collect()
    }
}

/// A quantized linear layer: `y = requant(W x + b)`.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    /// Weight matrix, `[out][in]`.
    pub weights: Vec<Vec<i8>>,
    /// Bias, one i32 per output.
    pub bias: Vec<i32>,
    /// Right-shift applied during requantization.
    pub shift: u8,
}

impl QuantLinear {
    /// Forward pass on `array`, with ReLU and requantization to i8.
    pub fn forward(&self, array: &SystolicModel, x: &[i8]) -> Vec<i8> {
        let acc = array.matvec(&self.weights, x);
        acc.iter()
            .zip(&self.bias)
            .map(|(&a, &b)| {
                let v = (a + b) >> self.shift;
                v.clamp(0, 127) as i8 // ReLU + saturation
            })
            .collect()
    }

    /// Raw accumulator outputs (no activation), for the final logits.
    pub fn logits(&self, array: &SystolicModel, x: &[i8]) -> Vec<i32> {
        let acc = array.matvec(&self.weights, x);
        acc.iter().zip(&self.bias).map(|(&a, &b)| a + b).collect()
    }
}

/// A quantized 2-D convolution layer (valid padding, stride 1), lowered
/// onto the systolic array via im2col — the standard mapping for CNN
/// inference on MAC arrays.
#[derive(Debug, Clone)]
pub struct QuantConv2d {
    /// Kernels, `[out_channel][in_channel * k * k]` (row-major patches).
    pub kernels: Vec<Vec<i8>>,
    /// Bias per output channel.
    pub bias: Vec<i32>,
    /// Requantization right-shift.
    pub shift: u8,
    /// Kernel size (k x k).
    pub k: usize,
    /// Input channels.
    pub in_ch: usize,
}

impl QuantConv2d {
    /// Applies the convolution to an `in_ch x h x w` tensor (channel-major
    /// layout). Returns `(out_tensor, out_h, out_w)` with ReLU applied.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match `in_ch * h * w` or the
    /// kernel does not fit.
    pub fn forward(
        &self,
        array: &SystolicModel,
        input: &[i8],
        h: usize,
        w: usize,
    ) -> (Vec<i8>, usize, usize) {
        assert_eq!(input.len(), self.in_ch * h * w, "input tensor shape");
        assert!(h >= self.k && w >= self.k, "kernel larger than input");
        let (oh, ow) = (h - self.k + 1, w - self.k + 1);
        let mut out = Vec::with_capacity(self.kernels.len() * oh * ow);
        for (oc, kernel) in self.kernels.iter().enumerate() {
            for y in 0..oh {
                for x in 0..ow {
                    // im2col patch: [in_ch][k][k] flattened.
                    let patch: Vec<i8> = (0..self.in_ch)
                        .flat_map(|c| {
                            (0..self.k).flat_map(move |dy| {
                                (0..self.k)
                                    .map(move |dx| input[c * h * w + (y + dy) * w + (x + dx)])
                            })
                        })
                        .collect();
                    let acc = array.matvec(std::slice::from_ref(kernel), &patch)[0];
                    let v = (acc + self.bias[oc]) >> self.shift;
                    out.push(v.clamp(0, 127) as i8);
                }
            }
        }
        (out, oh, ow)
    }
}

/// A small quantized MLP classifier (hidden ReLU layers + logit layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Hidden layers, applied in order.
    pub hidden: Vec<QuantLinear>,
    /// The final logit layer.
    pub output: QuantLinear,
}

impl Mlp {
    /// Predicts the class of `x` (argmax of logits) running on `array`.
    pub fn predict(&self, array: &SystolicModel, x: &[i8]) -> usize {
        let mut h: Vec<i8> = x.to_vec();
        for layer in &self.hidden {
            h = layer.forward(array, &h);
        }
        let logits = self.output.logits(array, &h);
        logits
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Accuracy over a dataset.
    pub fn accuracy(&self, array: &SystolicModel, data: &Dataset) -> f64 {
        if data.samples.is_empty() {
            return 0.0;
        }
        let correct = data
            .samples
            .iter()
            .filter(|(x, label)| self.predict(array, x) == *label)
            .count();
        correct as f64 / data.samples.len() as f64
    }
}

/// A synthetic clustered classification dataset (the MNIST stand-in; see
/// DESIGN.md substitutions).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `(features, label)` pairs; features are int8 vectors.
    pub samples: Vec<(Vec<i8>, usize)>,
    /// Number of classes.
    pub classes: usize,
    /// Feature dimension.
    pub dim: usize,
}

impl Dataset {
    /// Generates `n` samples from `classes` well-separated prototype
    /// clusters in `dim` dimensions with additive noise.
    pub fn synthetic(classes: usize, dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<Vec<i8>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.gen_range(-90..=90i32) as i8).collect())
            .collect();
        let samples = (0..n)
            .map(|_| {
                let label = rng.gen_range(0..classes);
                let x = prototypes[label]
                    .iter()
                    .map(|&p| {
                        let noisy = p as i32 + rng.gen_range(-12i32..=12);
                        noisy.clamp(-127, 127) as i8
                    })
                    .collect();
                (x, label)
            })
            .collect();
        Dataset {
            samples,
            classes,
            dim,
        }
    }

    /// Builds the matching nearest-prototype classifier as a one-layer
    /// quantized network: logits are scaled prototype dot products, the
    /// quantized analogue of a minimum-distance classifier.
    pub fn prototype_classifier(&self, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        // Recover prototypes by class means of the samples.
        let mut sums = vec![vec![0i64; self.dim]; self.classes];
        let mut counts = vec![0i64; self.classes];
        for (x, label) in &self.samples {
            counts[*label] += 1;
            for (s, &v) in sums[*label].iter_mut().zip(x) {
                *s += v as i64;
            }
        }
        let weights: Vec<Vec<i8>> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| {
                s.iter()
                    .map(|&v| {
                        if c == 0 {
                            rng.gen_range(-5i8..=5)
                        } else {
                            ((v / c.max(1)) / 2).clamp(-127, 127) as i8
                        }
                    })
                    .collect()
            })
            .collect();
        // Bias compensates prototype norms: -|w|^2/2 scaled to the product
        // domain (dot(w,x) peaks near |w|^2 * 2 given our weight halving).
        let bias: Vec<i32> = weights
            .iter()
            .map(|w| {
                let norm: i64 = w.iter().map(|&v| (v as i64) * (v as i64)).sum();
                (-norm) as i32
            })
            .collect();
        Mlp {
            hidden: vec![],
            output: QuantLinear {
                weights,
                bias,
                shift: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_reference() {
        let m = SystolicModel::new(4, 4);
        let w = vec![vec![1i8, 2, -3], vec![0, -1, 5]];
        let x = vec![10i8, -20, 30];
        assert_eq!(m.matvec(&w, &x), vec![10 - 40 - 90, 20 + 150]);
    }

    #[test]
    fn fault_free_classifier_is_accurate() {
        let data = Dataset::synthetic(10, 16, 400, 42);
        let mlp = data.prototype_classifier(1);
        let array = SystolicModel::new(8, 8);
        let acc = mlp.accuracy(&array, &data);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn msb_fault_hurts_more_than_lsb() {
        let data = Dataset::synthetic(10, 16, 300, 7);
        let mlp = data.prototype_classifier(1);
        let clean = SystolicModel::new(8, 8);
        let base = mlp.accuracy(&clean, &data);
        let lsb = clean.clone().with_fault(PeFault {
            row: 0,
            col: 0,
            bit: 0,
            stuck: true,
        });
        let msb = clean.clone().with_fault(PeFault {
            row: 0,
            col: 0,
            bit: 14,
            stuck: true,
        });
        let acc_lsb = mlp.accuracy(&lsb, &data);
        let acc_msb = mlp.accuracy(&msb, &data);
        assert!(acc_lsb >= acc_msb, "lsb {acc_lsb} msb {acc_msb}");
        assert!(base - acc_lsb < 0.1, "LSB fault should be nearly benign");
    }

    #[test]
    fn fault_only_affects_its_pe() {
        let m = SystolicModel::new(2, 2).with_fault(PeFault {
            row: 1,
            col: 1,
            bit: 3,
            stuck: true,
        });
        // Output 0 uses PEs in row 0 only: unaffected for a 1-output
        // matvec mapped to row 0.
        let w = vec![vec![1i8, 1]];
        let x = vec![1i8, 1];
        assert_eq!(m.matvec(&w, &x), vec![2]);
        // Output 1, input 1 hits PE (1,1): product corrupted (1*1=1 ->
        // bit3 stuck-1 -> 9).
        let w = vec![vec![1i8, 1], vec![1, 1]];
        let r = m.matvec(&w, &x);
        assert_eq!(r[0], 2);
        assert_eq!(r[1], 1 + 9);
    }

    #[test]
    fn stuck_bit_semantics_two_complement() {
        let m = SystolicModel::new(1, 1).with_fault(PeFault {
            row: 0,
            col: 0,
            bit: 15,
            stuck: true,
        });
        // 1*1 = 1; bit15 stuck-1 makes the i16 negative.
        let r = m.matvec(&[vec![1i8]], &[1i8]);
        assert_eq!(r[0], (1i16 | i16::MIN) as i32);
    }

    #[test]
    fn conv2d_matches_reference_convolution() {
        let array = SystolicModel::new(4, 4);
        // 1 input channel, 3x3 input, one 2x2 kernel of ones: output is
        // the 2x2 window sums.
        let conv = QuantConv2d {
            kernels: vec![vec![1, 1, 1, 1]],
            bias: vec![0],
            shift: 0,
            k: 2,
            in_ch: 1,
        };
        let input: Vec<i8> = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let (out, oh, ow) = conv.forward(&array, &input, 3, 3);
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(out, vec![12, 16, 24, 28]);
    }

    #[test]
    fn conv2d_multichannel_and_bias() {
        let array = SystolicModel::new(2, 2);
        // 2 channels, identity-ish kernels.
        let conv = QuantConv2d {
            kernels: vec![vec![1, 0, 0, 0, 0, 0, 0, 1]], // ch0 tl + ch1 br
            bias: vec![-3],
            shift: 0,
            k: 2,
            in_ch: 2,
        };
        let input: Vec<i8> = vec![
            1, 2, 3, 4, // ch0 2x2
            5, 6, 7, 8, // ch1 2x2
        ];
        let (out, oh, ow) = conv.forward(&array, &input, 2, 2);
        assert_eq!((oh, ow), (1, 1));
        assert_eq!(out, vec![1 + 8 - 3]);
    }

    #[test]
    fn conv2d_pe_fault_corrupts_feature_map() {
        let clean = SystolicModel::new(4, 4);
        let conv = QuantConv2d {
            kernels: vec![vec![3, -2, 1, 4]],
            bias: vec![0],
            shift: 0,
            k: 2,
            in_ch: 1,
        };
        let input: Vec<i8> = (0..16).map(|i| (i * 3 % 11) as i8).collect();
        let (base, ..) = conv.forward(&clean, &input, 4, 4);
        let faulty = clean.clone().with_fault(PeFault {
            row: 0,
            col: 1,
            bit: 10,
            stuck: true,
        });
        let (bad, ..) = conv.forward(&faulty, &input, 4, 4);
        assert_ne!(base, bad, "MSB-region fault must corrupt the output");
    }

    #[test]
    fn dataset_is_reproducible() {
        let a = Dataset::synthetic(4, 8, 50, 3);
        let b = Dataset::synthetic(4, 8, 50, 3);
        assert_eq!(a.samples, b.samples);
    }
}
