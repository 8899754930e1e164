//! Sample summaries and the metric-name grammar.

/// Median of a sample (mean of the two middle values for an even
/// count); `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile of a sample that still has at least ten
/// samples above it, as `(percentile, value)`: the nearest-rank value at
/// rank `n - 10`, reported as the whole percentile `⌊100·(n-10)/n⌋`.
/// `None` when the sample has ten or fewer values.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    let rank = n - 10;
    Some(((100 * rank / n) as u32, v[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a well-formed metric name: 1 to 64 characters
/// from letters, digits, `_`, `.` and `-`, starting with a letter or a
/// digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 11 samples: rank 1 has ten above it → p9, the minimum.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((9, 1.0)));
        // 100 samples: rank 90 → p90, value 90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
        // 30 samples: rank 20 → p66 (⌊2000/30⌋), value 20.
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((66, 20.0)));
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "compile_s",
            "opt.pass.simplify-reduce_s",
            "x64.emit_s",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "has space",
            "slash/",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
