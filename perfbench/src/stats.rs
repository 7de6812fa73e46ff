//! Order statistics over timing samples.

/// The `p`-quantile (0..=1) of `samples` by nearest rank; 0.0 when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The median of `samples`; 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_take_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 101.0);
    }
}
