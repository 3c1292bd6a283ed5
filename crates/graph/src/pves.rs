//! Perfect vertex elimination schemes (PVES) with pluggable priorities.
//!
//! A PVES is an ordering `v1, ..., vn` in which each `vi` is simplicial in
//! the graph induced by the not-yet-eliminated vertices. Chordal graphs
//! always have one, and coloring greedily in *reverse* PVES order uses the
//! minimum number of colors.
//!
//! An interval graph typically has many PVESs. The DAC'95 allocator picks
//! among simplicial candidates using a *priority key* — variables with
//! small sharing degree (and, among ties, small max-clique size) are
//! eliminated first, so that when coloring runs in reverse, high-sharing
//! variables are colored while the most flexibility remains.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::UGraph;

/// Error returned when a PVES is requested for a non-chordal graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotChordalError {
    /// A vertex at which elimination got stuck (no simplicial vertex among
    /// the remaining ones).
    pub remaining: Vec<usize>,
}

impl std::fmt::Display for NotChordalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph is not chordal: no simplicial vertex among remaining vertices {:?}",
            self.remaining
        )
    }
}

impl std::error::Error for NotChordalError {}

/// Computes a PVES choosing, at every step, the simplicial vertex with the
/// **smallest** key (ties broken by the lowest vertex index, making the
/// result deterministic).
///
/// The returned vector lists vertices in *elimination order*; color in the
/// reverse of this order for a minimum coloring.
///
/// `key` is evaluated once per vertex, when it becomes simplicial.
/// Eliminating a vertex never makes a simplicial vertex non-simplicial,
/// so the candidates wait in a min-heap of `(key, vertex)`. Each vertex
/// counts the non-adjacent pairs among its remaining neighbors, using
/// neighborhood bitsets; an elimination lowers only its neighbors'
/// counts, and a vertex becomes simplicial when its count reaches zero.
/// That makes the scheme `O(m · n / 64 + n log n)` for `m` edges instead
/// of re-testing every vertex at every step.
///
/// # Errors
///
/// Returns [`NotChordalError`] if at some step no remaining vertex is
/// simplicial, i.e. the graph is not chordal.
///
/// # Examples
///
/// ```
/// use lobist_graph::{pves::pves_by_key, UGraph};
///
/// let g = UGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// // Keys make vertex 2 most attractive to eliminate first.
/// let order = pves_by_key(&g, |v| std::cmp::Reverse(v)).expect("path is chordal");
/// assert_eq!(order[0], 2);
/// ```
pub fn pves_by_key<K, F>(g: &UGraph, mut key: F) -> Result<Vec<usize>, NotChordalError>
where
    K: Ord,
    F: FnMut(usize) -> K,
{
    let n = g.len();
    let words = n.div_ceil(64);
    // Row `u` is the closed neighborhood N[u] as a bitset.
    let mut rows = vec![0u64; n * words];
    for u in 0..n {
        let row = &mut rows[u * words..(u + 1) * words];
        row[u / 64] |= 1 << (u % 64);
        for &v in g.neighbors(u) {
            row[v / 64] |= 1 << (v % 64);
        }
    }
    let row = |u: usize| &rows[u * words..(u + 1) * words];
    let mut alive = vec![!0u64; words];
    if !n.is_multiple_of(64) {
        alive[words - 1] = (1 << (n % 64)) - 1;
    }
    // Non-adjacent pairs among the remaining neighbors of each vertex:
    // summing |N(u) \ N[a]| over the neighbors `a` counts each pair twice.
    let mut missing: Vec<usize> = (0..n)
        .map(|u| {
            let ru = row(u);
            let twice: u32 = g
                .neighbors(u)
                .iter()
                .map(|&a| {
                    ru.iter()
                        .zip(row(a))
                        .map(|(x, y)| (x & !y).count_ones())
                        .sum::<u32>()
                })
                .sum();
            twice as usize / 2
        })
        .collect();
    let mut ready: BinaryHeap<Reverse<(K, usize)>> = (0..n)
        .filter(|&u| missing[u] == 0)
        .map(|u| Reverse((key(u), u)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, v))) = ready.pop() {
        alive[v / 64] &= !(1 << (v % 64));
        order.push(v);
        let rv = row(v);
        for &u in g.neighbors(v) {
            if alive[u / 64] >> (u % 64) & 1 == 0 || missing[u] == 0 {
                continue;
            }
            // The pairs (v, w) for remaining neighbors w of u not adjacent
            // to v disappear with v.
            let lost: u32 = row(u)
                .iter()
                .zip(rv)
                .zip(&alive)
                .map(|((x, y), a)| (x & !y & a).count_ones())
                .sum();
            missing[u] -= lost as usize;
            if missing[u] == 0 {
                ready.push(Reverse((key(u), u)));
            }
        }
    }
    if order.len() < n {
        return Err(NotChordalError {
            remaining: (0..n)
                .filter(|&u| alive[u / 64] >> (u % 64) & 1 == 1)
                .collect(),
        });
    }
    Ok(order)
}

/// The textbook scheme that re-tests every remaining vertex at every
/// step, kept as the executable reference of [`pves_by_key`].
#[cfg(test)]
pub(crate) fn pves_by_key_reference<K, F>(
    g: &UGraph,
    mut key: F,
) -> Result<Vec<usize>, NotChordalError>
where
    K: Ord,
    F: FnMut(usize) -> K,
{
    let n = g.len();
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(K, usize)> = None;
        for v in 0..n {
            if !alive[v] || !g.is_simplicial_in(v, &alive) {
                continue;
            }
            let k = key(v);
            match &best {
                None => best = Some((k, v)),
                Some((bk, _)) if k < *bk => best = Some((k, v)),
                _ => {}
            }
        }
        match best {
            Some((_, v)) => {
                alive[v] = false;
                order.push(v);
            }
            None => {
                return Err(NotChordalError {
                    remaining: (0..n).filter(|&v| alive[v]).collect(),
                })
            }
        }
    }
    Ok(order)
}

/// A PVES with the default priority (lowest vertex index first among
/// simplicial candidates).
///
/// # Errors
///
/// Returns [`NotChordalError`] if the graph is not chordal.
pub fn pves(g: &UGraph) -> Result<Vec<usize>, NotChordalError> {
    pves_by_key(g, |v| v)
}

/// Verifies that `order` is a valid PVES of `g` (same predicate as a
/// perfect elimination ordering).
pub fn is_pves(g: &UGraph, order: &[usize]) -> bool {
    crate::chordal::is_perfect_elimination_ordering(g, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{conflict_graph, Interval};

    #[test]
    fn pves_of_path_is_valid() {
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
    }

    #[test]
    fn pves_fails_on_cycle() {
        let c4 = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let err = pves(&c4).unwrap_err();
        assert_eq!(err.remaining.len(), 4);
        assert!(err.to_string().contains("not chordal"));
    }

    #[test]
    fn key_steers_elimination_order() {
        // Path 0-1-2-3: both endpoints are simplicial initially.
        let g = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let asc = pves_by_key(&g, |v| v).unwrap();
        assert_eq!(asc[0], 0);
        let desc = pves_by_key(&g, std::cmp::Reverse).unwrap();
        assert_eq!(desc[0], 3);
        assert!(is_pves(&g, &asc));
        assert!(is_pves(&g, &desc));
    }

    #[test]
    fn pves_on_interval_graph_always_exists() {
        let spans = [
            Interval::new(0, 5),
            Interval::new(1, 2),
            Interval::new(1, 4),
            Interval::new(3, 7),
            Interval::new(6, 8),
        ];
        let g = conflict_graph(&spans);
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
        assert_eq!(order.len(), 5);
    }

    /// Deterministic splitmix64 stream for the random graphs below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn incremental_pves_matches_reference() {
        let mut rng = 7u64;
        for case in 0..300 {
            let n = 1 + (next(&mut rng) % 90) as usize;
            let g = if case % 3 == 2 {
                // Arbitrary graphs: mostly not chordal, so the error's
                // remaining set is compared too.
                let mut g = UGraph::new(n);
                for u in 0..n {
                    for v in u + 1..n {
                        if next(&mut rng).is_multiple_of(5) {
                            g.add_edge(u, v);
                        }
                    }
                }
                g
            } else {
                let spans: Vec<Interval> = (0..n)
                    .map(|_| {
                        let start = (next(&mut rng) % 60) as u32;
                        Interval::new(start, start + 1 + (next(&mut rng) % 20) as u32)
                    })
                    .collect();
                conflict_graph(&spans)
            };
            let salt = next(&mut rng) | 1;
            let key = |v: usize| (v as u64).wrapping_mul(salt) % 7;
            assert_eq!(
                pves_by_key(&g, key),
                pves_by_key_reference(&g, key),
                "case {case} (n = {n})"
            );
            assert_eq!(pves(&g), pves_by_key_reference(&g, |v| v), "case {case}");
        }
    }

    #[test]
    fn empty_graph_has_empty_pves() {
        let g = UGraph::new(0);
        assert_eq!(pves(&g).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn complete_graph_any_order_works() {
        let mut g = UGraph::new(4);
        for u in 0..4 {
            for v in (u + 1)..4 {
                g.add_edge(u, v);
            }
        }
        let order = pves(&g).unwrap();
        assert!(is_pves(&g, &order));
    }
}
