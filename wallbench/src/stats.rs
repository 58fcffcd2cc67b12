//! Order statistics over timing samples.

/// Sorts a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// Median with the two middle values averaged for an even count, as
/// Python's `statistics.median` computes it. `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`: the smallest sample
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    Some(s[rank.min(s.len()) - 1])
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (the default `exclusive` method).
/// `None` for fewer than two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread a bound in `BENCHMARK.json` is set against.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(v)?;
    let med = median(v)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}
