//! The independent answer oracle: quadrant, global and dynamic skylines by
//! brute force, straight from the paper's definitions, in handle space. It
//! shares no code with `skyline_core::query` or the diagram engines.
//!
//! * A point `a` dominates `b` when `a ≤ b` on both axes and `a ≠ b`
//!   (smaller is better).
//! * Quadrants of `q` are open: a point with `p.x == q.x` or `p.y == q.y`
//!   lies on an axis of `q` and belongs to no quadrant.
//! * The quadrant skyline of `q` is the skyline of the points in its first
//!   quadrant; the global skyline is the union, over the four quadrants, of
//!   the skyline of each quadrant's points mapped to `|p − q|`; the dynamic
//!   skyline is the skyline of all points mapped to `|p − q|`.

use skyline_core::geometry::Point;
use skyline_core::maintained::Handle;

/// Skyline of mapped points by pairwise dominance, as sorted handles.
fn skyline(mapped: &[(Handle, i64, i64)]) -> Vec<Handle> {
    let dominates = |a: &(Handle, i64, i64), b: &(Handle, i64, i64)| {
        a.1 <= b.1 && a.2 <= b.2 && (a.1, a.2) != (b.1, b.2)
    };
    let mut out: Vec<Handle> = mapped
        .iter()
        .filter(|b| !mapped.iter().any(|a| dominates(a, b)))
        .map(|b| b.0)
        .collect();
    out.sort_unstable();
    out
}

/// The open quadrant (1..=4, counter-clockwise from upper right) holding
/// `p` relative to `q`, or `None` on an axis of `q`.
fn quadrant_of(p: Point, q: Point) -> Option<u8> {
    use std::cmp::Ordering::{Greater, Less};
    match (p.x.cmp(&q.x), p.y.cmp(&q.y)) {
        (Greater, Greater) => Some(1),
        (Less, Greater) => Some(2),
        (Less, Less) => Some(3),
        (Greater, Less) => Some(4),
        _ => None,
    }
}

fn mapped_in(live: &[(Handle, Point)], q: Point, quadrant: Option<u8>) -> Vec<(Handle, i64, i64)> {
    live.iter()
        .filter(|(_, p)| quadrant.is_none() || quadrant_of(*p, q) == quadrant)
        .map(|&(h, p)| (h, (p.x - q.x).abs(), (p.y - q.y).abs()))
        .collect()
}

pub fn quadrant(live: &[(Handle, Point)], q: Point) -> Vec<Handle> {
    skyline(&mapped_in(live, q, Some(1)))
}

pub fn global(live: &[(Handle, Point)], q: Point) -> Vec<Handle> {
    let mut out: Vec<Handle> = (1..=4)
        .flat_map(|k| skyline(&mapped_in(live, q, Some(k))))
        .collect();
    out.sort_unstable();
    out
}

pub fn dynamic(live: &[(Handle, Point)], q: Point) -> Vec<Handle> {
    skyline(&mapped_in(live, q, None))
}

/// The one comparison every check goes through: an answer is right only if
/// it is exactly the expected set, in sorted order.
pub fn same(expected: &[Handle], got: &[Handle]) -> bool {
    expected == got
}

/// `small ⊆ big`, both sorted.
pub fn subset(small: &[Handle], big: &[Handle]) -> bool {
    small.iter().all(|h| big.binary_search(h).is_ok())
}

/// The paper's running example (ICDE'18, Figure 1), as reconstructed in
/// the repository's hotel dataset: entry `i` is hotel `p{i+1}`.
const HOTELS: [(i64, i64); 11] = [
    (1, 92),
    (3, 96),
    (12, 86),
    (5, 94),
    (15, 85),
    (8, 78),
    (16, 83),
    (13, 83),
    (6, 93),
    (21, 82),
    (11, 9),
];

fn live_of(coords: &[(i64, i64)]) -> Vec<(Handle, Point)> {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (Handle(i as u64 + 1), Point::new(x, y)))
        .collect()
}

fn handles(ks: &[u64]) -> Vec<Handle> {
    ks.iter().map(|&k| Handle(k)).collect()
}

/// Checks the oracle against hand-derived answers, and the comparison
/// against injected wrong answers. Returns the failed cases (empty when
/// all pass). Handle `k` is the dataset's `k`-th point (hotel `p{k}`).
pub fn self_test() -> Vec<&'static str> {
    let mut failures = Vec::new();
    let mut expect = |name: &'static str, ok: bool| {
        if !ok {
            failures.push(name);
        }
    };

    let hotels = live_of(&HOTELS);
    let q = Point::new(10, 80);
    let quad = quadrant(&hotels, q);
    expect("hotel quadrant = {p3,p8,p10}", quad == handles(&[3, 8, 10]));
    expect(
        "hotel global = {p1,p3,p6,p8,p9,p10,p11}",
        global(&hotels, q) == handles(&[1, 3, 6, 8, 9, 10, 11]),
    );
    expect(
        "hotel dynamic = {p6,p11}",
        dynamic(&hotels, q) == handles(&[6, 11]),
    );

    // Equal y: the point further left dominates; equal x: the lower one.
    let ties = live_of(&[(2, 5), (4, 5), (7, 1), (7, 3)]);
    expect(
        "tie on an axis: (2,5) dominates (4,5); (7,1) dominates (7,3)",
        quadrant(&ties, Point::new(0, 0)) == handles(&[1, 3]),
    );
    // Identical points dominate neither each other nor are dominated.
    let dup = live_of(&[(3, 2), (3, 6), (5, 1), (5, 1)]);
    expect(
        "duplicate x and duplicate points",
        quadrant(&dup, Point::new(0, 0)) == handles(&[1, 3, 4]),
    );
    // q on the grid line x = 3: (3,2) lies on q's axis, in no quadrant,
    // but it is in the dynamic skyline (|p − q| = (0, 2)).
    let line = live_of(&[(3, 2), (5, 4), (6, 1)]);
    let on_line = Point::new(3, 0);
    expect(
        "on a grid line: quadrant excludes the axis point",
        quadrant(&line, on_line) == handles(&[2, 3]),
    );
    expect(
        "on a grid line: global excludes the axis point",
        global(&line, on_line) == handles(&[2, 3]),
    );
    expect(
        "on a grid line: dynamic keeps the axis point",
        dynamic(&line, on_line) == handles(&[1, 3]),
    );

    // Injected wrong answers must be refused.
    let dropped = &quad[1..];
    let mut extra = quad.clone();
    extra.push(Handle(11));
    expect("a dropped point is a failure", !same(&quad, dropped));
    expect("an extra point is a failure", !same(&quad, &extra));
    expect(
        "the right answer passes",
        same(&quad, &quadrant(&hotels, q)),
    );
    expect(
        "quadrant ⊆ global on the hotels",
        subset(&quad, &global(&hotels, q)),
    );
    expect(
        "an extra point breaks ⊆",
        !subset(&handles(&[2]), &global(&hotels, q)),
    );
    failures
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        assert_eq!(super::self_test(), Vec::<&str>::new());
    }
}
