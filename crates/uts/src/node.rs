//! UTS tree nodes and the tree-shape parameters.

use crate::sha1::{sha1, DIGEST_BYTES};

/// Tree families from the UTS specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeKind {
    /// Geometric trees: each node's child count is geometrically
    /// distributed with mean `b0`; nodes at depth `gen_mx` are leaves.
    Geometric {
        /// Expected branching factor.
        b0: f64,
        /// Depth cutoff.
        gen_mx: u32,
    },
    /// Binomial trees: the root has `b0` children; every other node has
    /// `m` children with probability `q` and none otherwise. `m·q < 1`
    /// keeps the expected size finite.
    Binomial {
        /// Root branching factor.
        b0: u32,
        /// Children of a non-root interior node.
        m: u32,
        /// Probability that a non-root node is interior.
        q: f64,
    },
}

/// Full description of a UTS tree: its family plus the root seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Tree family and shape.
    pub kind: TreeKind,
    /// Root seed (`-r` in the original benchmark).
    pub seed: u32,
}

/// Safety cap on per-node fan-out (matches the spirit of UTS's
/// MAXNUMCHILDREN guard; astronomically unlikely to bind for sane `b0`).
const MAX_CHILDREN: u32 = 10_000;

impl TreeParams {
    /// The root node of this tree.
    pub fn root(&self) -> Node {
        let mut msg = [0u8; 12];
        msg[..8].copy_from_slice(b"UTS-root");
        msg[8..].copy_from_slice(&self.seed.to_be_bytes());
        Node {
            state: sha1(&msg),
            depth: 0,
        }
    }

    /// Number of children of `node` under these parameters.
    pub fn num_children(&self, node: &Node) -> u32 {
        match self.kind {
            TreeKind::Geometric { b0, gen_mx } => {
                if node.depth >= gen_mx {
                    return 0;
                }
                // Geometric distribution with mean b0:
                // P(m = k) = p (1-p)^k, p = 1/(b0+1).
                let u = node.uniform();
                let p = 1.0 / (b0 + 1.0);
                let m = (u.max(f64::MIN_POSITIVE).ln() / (1.0 - p).ln()).floor();
                (m as u32).min(MAX_CHILDREN)
            }
            TreeKind::Binomial { b0, m, q } => {
                if node.depth == 0 {
                    b0.min(MAX_CHILDREN)
                } else if node.uniform() < q {
                    m.min(MAX_CHILDREN)
                } else {
                    0
                }
            }
        }
    }
}

/// A tree node: 20 bytes of SHA-1 state plus its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// SHA-1 state identifying the node.
    pub state: [u8; DIGEST_BYTES],
    /// Depth below the root.
    pub depth: u32,
}

/// Serialized size of a node (state + depth).
pub const NODE_BYTES: usize = DIGEST_BYTES + 4;

impl Node {
    /// The `i`-th child: `SHA1(state ‖ i)` one level deeper.
    pub fn child(&self, i: u32) -> Node {
        let mut msg = [0u8; DIGEST_BYTES + 4];
        msg[..DIGEST_BYTES].copy_from_slice(&self.state);
        msg[DIGEST_BYTES..].copy_from_slice(&i.to_be_bytes());
        Node {
            state: sha1(&msg),
            depth: self.depth + 1,
        }
    }

    /// Uniform value in `[0, 1)` derived from the node state.
    pub fn uniform(&self) -> f64 {
        let v = u32::from_be_bytes(self.state[..4].try_into().expect("4 bytes"));
        v as f64 / (u32::MAX as f64 + 1.0)
    }

    /// Serialize into `NODE_BYTES` bytes.
    pub fn encode(&self) -> [u8; NODE_BYTES] {
        let mut out = [0u8; NODE_BYTES];
        out[..DIGEST_BYTES].copy_from_slice(&self.state);
        out[DIGEST_BYTES..].copy_from_slice(&self.depth.to_le_bytes());
        out
    }

    /// Deserialize from bytes produced by [`Node::encode`].
    pub fn decode(buf: &[u8]) -> Node {
        let mut state = [0u8; DIGEST_BYTES];
        state.copy_from_slice(&buf[..DIGEST_BYTES]);
        Node {
            state,
            depth: u32::from_le_bytes(buf[DIGEST_BYTES..NODE_BYTES].try_into().expect("4 bytes")),
        }
    }
}

/// Aggregate statistics of a (partial or full) traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Nodes visited.
    pub nodes: u64,
    /// Leaves visited.
    pub leaves: u64,
    /// Maximum depth seen.
    pub max_depth: u64,
}

impl TreeStats {
    /// Record one visited node.
    pub fn visit(&mut self, depth: u32, n_children: u32) {
        self.nodes += 1;
        if n_children == 0 {
            self.leaves += 1;
        }
        self.max_depth = self.max_depth.max(depth as u64);
    }

    /// Merge another partial count into this one.
    pub fn merge(&mut self, other: &TreeStats) {
        self.nodes += other.nodes;
        self.leaves += other.leaves;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(b0: f64, gen_mx: u32, seed: u32) -> TreeParams {
        TreeParams {
            kind: TreeKind::Geometric { b0, gen_mx },
            seed,
        }
    }

    #[test]
    fn node_encode_decode_roundtrip() {
        let p = geo(3.0, 5, 42);
        let n = p.root().child(2).child(0);
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let p = geo(3.0, 5, 7);
        let r = p.root();
        assert_eq!(r.child(0), r.child(0));
        assert_ne!(r.child(0), r.child(1));
        assert_ne!(r.child(0).state, r.state);
        assert_eq!(r.child(0).depth, 1);
    }

    #[test]
    fn different_seeds_give_different_trees() {
        assert_ne!(geo(3.0, 5, 1).root(), geo(3.0, 5, 2).root());
    }

    #[test]
    fn geometric_depth_cutoff() {
        let p = geo(100.0, 2, 9);
        let mut n = p.root();
        n.depth = 2;
        assert_eq!(p.num_children(&n), 0);
    }

    #[test]
    fn geometric_mean_children_near_b0() {
        // Sample many nodes; the empirical mean child count must be near
        // b0 (law of large numbers; SHA-1 gives good uniformity).
        let p = geo(4.0, 1000, 11);
        let mut n = p.root();
        let mut total = 0u64;
        let samples = 20_000;
        for i in 0..samples {
            total += p.num_children(&n) as u64;
            // Rehash to a fresh state but stay at depth 0 so the cutoff
            // never fires.
            n = Node {
                state: crate::sha1::sha1(&n.child(i % 3).state),
                depth: 0,
            };
        }
        let mean = total as f64 / samples as f64;
        assert!(
            (mean - 4.0).abs() < 0.25,
            "empirical mean {mean} far from b0 = 4"
        );
    }

    #[test]
    fn binomial_root_has_b0_children() {
        let p = TreeParams {
            kind: TreeKind::Binomial {
                b0: 17,
                m: 4,
                q: 0.2,
            },
            seed: 3,
        };
        assert_eq!(p.num_children(&p.root()), 17);
    }

    #[test]
    fn binomial_interior_probability_matches_q() {
        let p = TreeParams {
            kind: TreeKind::Binomial {
                b0: 1,
                m: 8,
                q: 0.124875,
            },
            seed: 5,
        };
        let mut n = p.root().child(0);
        let mut interior = 0u64;
        let samples = 20_000;
        for i in 0..samples {
            if p.num_children(&n) > 0 {
                interior += 1;
            }
            n = Node {
                state: crate::sha1::sha1(&n.encode()),
                depth: 1,
            };
            let _ = i;
        }
        let frac = interior as f64 / samples as f64;
        assert!(
            (frac - 0.124875).abs() < 0.01,
            "interior fraction {frac} far from q"
        );
    }

    #[test]
    fn stats_visit_and_merge() {
        let mut a = TreeStats::default();
        a.visit(0, 2);
        a.visit(1, 0);
        let mut b = TreeStats::default();
        b.visit(5, 0);
        a.merge(&b);
        assert_eq!(a.nodes, 3);
        assert_eq!(a.leaves, 2);
        assert_eq!(a.max_depth, 5);
    }
}
