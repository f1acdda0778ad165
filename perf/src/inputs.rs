//! Seeded input generators. The programs under test receive only what
//! these produce; `--seed` reaches nothing else except the machine seed.
//!
//! UTS trees are notoriously seed-sensitive: at the `medium` preset's
//! shape (`b0 = 4`, depth 11) root seeds 9..48 give anything from 1 node
//! to 48 M. A benchmark whose work changes 100× with the seed cannot hold
//! a regression bound, so instead of fixing `b0` and taking whatever size
//! falls out, [`sized_geometric_tree`] fixes the *size* and solves for
//! `b0`. Every seed then yields an independent tree (own root, own shape)
//! with the same node count to within 1 %.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use scioto_det::rng::{mix64, Rng};
use scioto_scf::{BasisSet, Molecule};
use scioto_uts::node::{Node, TreeKind, TreeParams};

/// A not-yet-materialized child, ordered by the smallest `b0` at which it
/// exists ("birth"). Min-heap on birth.
struct Unborn {
    birth: f64,
    parent_birth: f64,
    parent: Node,
    idx: u32,
}

impl PartialEq for Unborn {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o) == Ordering::Equal
    }
}
impl Eq for Unborn {}
impl PartialOrd for Unborn {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Unborn {
    fn cmp(&self, o: &Self) -> Ordering {
        o.birth.total_cmp(&self.birth)
    }
}

/// Smallest `b0` at which `parent` has a child number `idx`, given that
/// `parent` itself only exists from `parent_birth` on.
///
/// `TreeParams::num_children` gives a node `floor(ln u / ln(1 - p))`
/// children with `p = 1 / (b0 + 1)`, so child `idx` exists iff
/// `b0 / (b0 + 1) >= u^(1 / (idx + 1))`.
fn birth(parent: &Node, idx: u32, parent_birth: f64) -> f64 {
    let t = parent
        .uniform()
        .max(f64::MIN_POSITIVE)
        .powf(1.0 / (f64::from(idx) + 1.0));
    (t / (1.0 - t)).max(parent_birth)
}

/// The geometric tree with root `root_seed` and depth cutoff `gen_mx`
/// grown to `target` nodes: nodes are materialized in order of birth
/// (a node's children and identity do not depend on `b0`, only its child
/// *count* does, so trees nest as `b0` grows) until `target` exist, and
/// `b0` is the last birth. `None` when the size jumps past `target` by
/// more than 1 % at that `b0` — a whole subtree shares one birth, which
/// happens when an early node's first child is what was waited for.
fn grow_to(root_seed: u32, gen_mx: u32, target: u64) -> Option<TreeParams> {
    let params = |b0| TreeParams {
        kind: TreeKind::Geometric { b0, gen_mx },
        seed: root_seed,
    };
    let root = params(1.0).root();
    let mut heap = BinaryHeap::new();
    heap.push(Unborn {
        birth: birth(&root, 0, 0.0),
        parent_birth: 0.0,
        parent: root,
        idx: 0,
    });
    let mut nodes = 1u64;
    let mut b0 = 0.0f64;
    while let Some(next) = heap.pop() {
        if nodes >= target && next.birth > b0 {
            break;
        }
        if nodes > target + target / 100 {
            return None;
        }
        b0 = next.birth;
        nodes += 1;
        heap.push(Unborn {
            birth: birth(&next.parent, next.idx + 1, next.parent_birth),
            idx: next.idx + 1,
            ..next
        });
        let node = next.parent.child(next.idx);
        if node.depth < gen_mx {
            heap.push(Unborn {
                birth: birth(&node, 0, next.birth),
                parent_birth: next.birth,
                parent: node,
                idx: 0,
            });
        }
    }
    // One ulp-scale nudge so the runtime's own floor() lands on the same
    // side of every threshold computed above.
    Some(params(b0 * (1.0 + 1e-12)))
}

/// A geometric UTS tree of `target` nodes (within 1 %) for `seed`: root
/// seeds are drawn from `seed` until one grows cleanly. About half do, so
/// the expected cost is two growths (≈ 0.5 µs per target node each).
pub fn sized_geometric_tree(seed: u64, gen_mx: u32, target: u64) -> TreeParams {
    (0u64..)
        .find_map(|k| {
            let root_seed = mix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(k)) as u32;
            grow_to(root_seed, gen_mx, target)
        })
        .expect("an unbounded candidate stream")
}

/// The zig-zag hydrogen chain of `Molecule::h_chain(atoms)` with every
/// coordinate displaced by up to ±0.05 bohr, in the repo's even-tempered
/// two-primitive basis. The displacement changes every integral and the
/// screened task list, not the problem's size.
pub fn jittered_h_chain_basis(seed: u64, atoms: usize) -> BasisSet {
    let mut rng = Rng::seed_from_u64(seed);
    let mut molecule = Molecule::h_chain(atoms);
    for atom in &mut molecule.atoms {
        for x in &mut atom.pos {
            *x += (rng.gen_f64() - 0.5) * 0.1;
        }
    }
    BasisSet::even_tempered(molecule, 2, 0.4, 3.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_uts::sequential::count_tree;

    #[test]
    fn sized_trees_hit_their_target_for_any_seed() {
        for seed in 0..8 {
            let nodes = count_tree(&sized_geometric_tree(seed, 8, 5_000)).nodes;
            assert!(
                (4_950..=5_100).contains(&nodes),
                "seed {seed}: {nodes} nodes"
            );
        }
    }

    #[test]
    fn same_seed_same_tree_other_seed_other_tree() {
        let a = sized_geometric_tree(3, 8, 5_000);
        assert_eq!(a, sized_geometric_tree(3, 8, 5_000));
        let b = sized_geometric_tree(4, 8, 5_000);
        assert_ne!(a.seed, b.seed);
        assert_ne!(count_tree(&a), count_tree(&b));
    }

    #[test]
    fn jitter_is_seeded_and_small() {
        let a = jittered_h_chain_basis(1, 6);
        assert_eq!(a, jittered_h_chain_basis(1, 6));
        assert_ne!(a, jittered_h_chain_basis(2, 6));
        let plain = Molecule::h_chain(6);
        for (j, p) in a.molecule.atoms.iter().zip(&plain.atoms) {
            assert!(scioto_scf::basis::dist(j.pos, p.pos) < 0.1);
        }
    }
}
