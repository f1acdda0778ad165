//! # scioto-tce — a block-sparse tensor-contraction kernel
//!
//! Representative of the sparse tensor contractions performed by coupled-
//! cluster models in the Tensor Contraction Engine (Baumgartner et al.),
//! which the Scioto paper uses as its second application (§6.2).
//!
//! A TCE contraction such as `C[i,j,a,b] += Σ_{c,d} A[i,j,c,d]·B[c,d,a,b]`
//! lowers — after grouping `(i,j)`, `(c,d)`, `(a,b)` into composite
//! indices — to a **block-sparse matrix multiplication** over dense tiles,
//! where spin/spatial symmetry makes many tiles identically zero. This
//! crate implements exactly that lowered form:
//!
//! * [`tensor::BlockSparse`] — a tiled matrix with a block presence mask
//!   (structured symmetry pattern + seeded random sparsity), stored in a
//!   Global Arrays distributed array;
//! * [`contract`] — the contraction drivers: a dense sequential
//!   reference, the **original** scheme (replicated task list + `read_inc`
//!   global counter), and the **Scioto** scheme (task collection seeded at
//!   the owner of each output tile, with work stealing);
//! * per-task cost is proportional to the number of contributing inner
//!   tiles, which sparsity makes irregular — the load-imbalance source
//!   the paper highlights.
//!
//! All drivers must produce bit-identical results to the dense reference;
//! the test suites enforce this.

pub mod contract;
pub mod tensor;

pub use contract::{run_contraction, ContractionConfig, ContractionReport};
pub use scioto_ga::LoadBalance;
pub use tensor::{BlockSparse, SparsityPattern};

/// Virtual CPU cost charged per fused multiply-add in the tile kernel
/// (ns). A bs=8 tile-multiply (1024 flops) then costs ~1 µs — the task
/// granularity regime of the paper's TCE kernel.
pub const FLOP_COST_NS: f64 = 1.0;
