//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle samples for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail the benchmark reports: the highest percentile that still
/// has at least ten samples beyond it, i.e. the 11th-largest sample —
/// but never below the median (with 20 samples or fewer the 11th-largest
/// sits at or below it, and the median is reported instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank, `100 × (n − 10) / n` (50 when it is the
    /// median).
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// See [`Tail`]; `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n > 20 {
        Tail {
            value: v[n - 11],
            percentile: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    } else {
        Tail {
            value: median(&v).expect("non-empty"),
            percentile: 50.0,
            samples: n,
        }
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let short = tail(&[1.0, 5.0, 3.0]).unwrap();
        assert_eq!((short.value, short.percentile), (3.0, 50.0));
    }
}
