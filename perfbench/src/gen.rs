//! Seeded inputs. The workload seed is the only source of randomness; the
//! program under test receives nothing but the generated points.
//!
//! Data coordinates are multiples of 4 and query coordinates are odd, so no
//! query ever lies on a grid line (a data coordinate) or on a dynamic
//! bisector line (the mean of two data coordinates, always even). Off those
//! lines every diagram lookup must equal the from-definition answer, which
//! is what the oracle checks.

use skyline_core::geometry::Point;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (data, queries, updates ...),
    /// so adding draws to one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximately standard normal (Irwin–Hall, 12 uniforms).
    fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.unit()).sum::<f64>() - 6.0
    }
}

/// The two input distributions of the skyline literature used here.
#[derive(Clone, Copy, Debug)]
pub enum Distribution {
    /// Both attributes uniform and independent.
    Independent,
    /// Attributes near the anti-diagonal `x + y = s`: large skylines.
    Anticorrelated,
}

/// One data point over the domain `[0, s)` per axis, scaled by 4.
pub fn data_point(rng: &mut Rng, dist: Distribution, s: u64) -> Point {
    let (u, v) = match dist {
        Distribution::Independent => (rng.below(s), rng.below(s)),
        Distribution::Anticorrelated => {
            let sf = s as f64;
            let total = sf + rng.normal() * sf / 12.0;
            let t = rng.unit();
            let clamp = |w: f64| (w.round().max(0.0) as u64).min(s - 1);
            (clamp(t * total), clamp((1.0 - t) * total))
        }
    };
    Point::new(4 * u as i64, 4 * v as i64)
}

pub fn dataset(rng: &mut Rng, dist: Distribution, n: usize, s: u64) -> Vec<Point> {
    (0..n).map(|_| data_point(rng, dist, s)).collect()
}

/// A query point uniform over the scaled domain, with odd coordinates.
pub fn uniform_query(rng: &mut Rng, s: u64) -> Point {
    Point::new(
        2 * rng.below(2 * s) as i64 + 1,
        2 * rng.below(2 * s) as i64 + 1,
    )
}

/// A query point within 15 of data point `p` on each axis, with odd
/// coordinates (`p` has even ones).
pub fn near_query(rng: &mut Rng, p: Point) -> Point {
    let off = |r: &mut Rng| 2 * r.below(16) as i64 - 15;
    Point::new(p.x + off(rng), p.y + off(rng))
}
