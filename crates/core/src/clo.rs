//! Common local objects (§2.3).
//!
//! A common local object (CLO) is a data object of which *every* process
//! holds a local instance (with possibly differing values). Collective
//! registration yields a portable handle; wherever a task executes, it can
//! look up the instance local to that process. Tasks use CLOs to gather
//! intermediate results locally (the UTS tree statistics use this), and
//! CLOs are the only output mechanism when the surrounding model has no
//! global address space (MPI interoperability).

use std::any::Any;
use std::sync::Arc;

use scioto_det::AppendTable;

/// Portable handle to a collectively registered common local object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CloHandle(pub u32);

pub(crate) struct CloRegistry {
    tables: Vec<AppendTable<Arc<dyn Any + Send + Sync>>>,
}

impl CloRegistry {
    pub(crate) fn new(nranks: usize) -> Self {
        CloRegistry {
            tables: (0..nranks).map(|_| AppendTable::new()).collect(),
        }
    }

    pub(crate) fn register(&self, rank: usize, obj: Arc<dyn Any + Send + Sync>) -> CloHandle {
        CloHandle(self.tables[rank].push(obj) as u32)
    }

    pub(crate) fn lookup(&self, rank: usize, h: CloHandle) -> &Arc<dyn Any + Send + Sync> {
        self.tables[rank].get(h.0 as usize).unwrap_or_else(|| {
            panic!(
                "common local object {} not registered on rank {rank} \
                 (CLOs must be registered collectively)",
                h.0
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_instances_are_distinct() {
        let r = CloRegistry::new(2);
        let h0 = r.register(0, Arc::new(10u64));
        let h1 = r.register(1, Arc::new(20u64));
        assert_eq!(h0, h1, "collective registration gives the same handle");
        let v0 = r.lookup(0, h0).downcast_ref::<u64>().unwrap();
        let v1 = r.lookup(1, h1).downcast_ref::<u64>().unwrap();
        assert_eq!((*v0, *v1), (10, 20));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_clo_panics() {
        CloRegistry::new(1).lookup(0, CloHandle(0));
    }
}
