//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Mean over inputs of `stat` of each input's repeats. A run repeats
/// each of its inputs, so `stat` filters timing noise per input while
/// the mean averages the differences between inputs.
pub fn mean_over_inputs(per_input: &[Vec<f64>], stat: fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per: Vec<f64> = per_input.iter().filter_map(|xs| stat(xs)).collect();
    mean(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_over_inputs_filters_per_input() {
        // One noisy repeat on input 0 does not move its median.
        let per_input = vec![vec![1.0, 1.0, 9.0], vec![3.0]];
        assert_eq!(mean_over_inputs(&per_input, median), Some(2.0));
        // An input that never ran is left out of the mean.
        let partial = vec![vec![2.0, 4.0], vec![]];
        assert_eq!(mean_over_inputs(&partial, median), Some(3.0));
        assert_eq!(mean_over_inputs(&[], median), None);
    }
}
