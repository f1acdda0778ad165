//! Task-collection configuration (the `tc_create` parameters of §3.1 plus
//! the ablation and policy knobs the evaluation section exercises).

/// Affinity constant: execute locally if at all possible (placed at the
/// head / private end of the owner's queue).
pub const AFFINITY_HIGH: i32 = 1;

/// Affinity constant: first candidate to be stolen (placed at the tail /
/// shared end of the queue).
pub const AFFINITY_LOW: i32 = -1;

/// Which queue implementation backs each process's patch of the
/// collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The paper's split queue (§5): owner-private head portion accessed
    /// without locking, shared tail portion under a lock.
    Split,
    /// The paper's original, fully locked queue — every operation,
    /// including the owner's local insert/get, takes the queue lock. Kept
    /// as the "No Split" ablation of Figure 7.
    Locked,
}

/// Dynamic load-balancing policy for `tc_process`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbKind {
    /// Locality-aware random work stealing (§5.1) — the Scioto default.
    WorkStealing,
    /// No load balancing: each process executes only its own patch
    /// ("dynamic load balancing can be disabled prior to entering the task
    /// parallel region", §2).
    Disabled,
}

/// Victim-selection policy for the steal loop of `tc_process`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Uniform random victim over the other `n - 1` ranks — the policy the
    /// paper describes and the ablation baseline. Draws exactly one RNG
    /// value per attempt, so a run under this policy is byte-identical to
    /// the pre-locality steal loop.
    Uniform,
    /// Locality-aware selection: retry the last successful victim first
    /// (work sources stay productive across consecutive steals), otherwise
    /// draw a ring distance from a truncated geometric distribution so near
    /// neighbours are preferred, with a small uniform escape probability
    /// that keeps distant single-source workloads reachable.
    Locality,
}

/// Configuration for [`crate::TaskCollection::create`], mirroring
/// `tc_create(task_sz, chunk_sz, max_sz)`.
#[derive(Clone, Copy, Debug)]
pub struct TcConfig {
    /// Maximum task body size in bytes (`task_sz`).
    pub max_body: usize,
    /// Maximum number of tasks moved by one steal operation (`chunk_sz`).
    pub chunk: usize,
    /// Capacity of each process's queue in tasks (`max_sz`).
    pub max_tasks: usize,
    /// Queue implementation.
    pub queue: QueueKind,
    /// Load-balancing policy.
    pub ldbal: LbKind,
    /// When the shared portion of the owner's queue drops below this many
    /// tasks (and private work is available), the owner moves the split
    /// pointer to release work for stealing.
    pub release_threshold: usize,
    /// Fraction of the private portion released to the shared portion when
    /// rebalancing the split.
    pub release_fraction: f64,
    /// Enable the §5.3 votes-before optimization that elides unnecessary
    /// dirty marks during termination detection (disable for ablation).
    pub td_votes_before_opt: bool,
    /// Victim-selection policy for work stealing.
    pub victim: VictimPolicy,
    /// Continuation probability of the Locality policy's truncated
    /// geometric distance walk (ignored by Uniform). Higher values reach
    /// farther around the ring per draw.
    pub victim_cont: f64,
    /// Uniform-escape probability of a Locality draw (ignored by
    /// Uniform). Keeps distant single-source workloads reachable.
    pub victim_escape: f64,
}

impl TcConfig {
    /// A split-queue, work-stealing collection — the paper's default.
    pub fn new(max_body: usize, chunk: usize, max_tasks: usize) -> Self {
        let cfg = TcConfig {
            max_body,
            chunk,
            max_tasks,
            queue: QueueKind::Split,
            ldbal: LbKind::WorkStealing,
            // Release work to the shared portion only when thieves have
            // fully drained it: each release moves half the private
            // portion, so the shared side refills in bursts and the owner
            // takes the split lock rarely (the ablation bench shows higher
            // thresholds cost up to 2x in UTS throughput).
            release_threshold: 1,
            release_fraction: 0.5,
            td_votes_before_opt: true,
            victim: VictimPolicy::Locality,
            victim_cont: crate::victim::CONT_P,
            victim_escape: crate::victim::ESCAPE_P,
        };
        if let Err(e) = cfg.validate() {
            panic!("invalid TcConfig: {e}");
        }
        cfg
    }

    /// Check the configuration's invariants, returning a description of
    /// the first violation.
    ///
    /// [`crate::TaskCollection::create`] calls this, so a bad
    /// configuration (including one assembled with struct-literal syntax,
    /// which bypasses [`TcConfig::new`]) is rejected with a clear message
    /// at construction instead of panicking later inside slot encoding or
    /// hanging the steal loop.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_tasks < 2 {
            return Err(format!(
                "max_tasks = {}: collection must hold at least 2 tasks per patch",
                self.max_tasks
            ));
        }
        if self.chunk == 0 {
            return Err(
                "chunk size must be at least 1: a steal that moves zero tasks \
                 can never make progress"
                    .to_string(),
            );
        }
        if !self.release_fraction.is_finite()
            || self.release_fraction <= 0.0
            || self.release_fraction > 1.0
        {
            return Err(format!(
                "release_fraction = {}: must be in (0, 1]",
                self.release_fraction
            ));
        }
        if !self.victim_cont.is_finite() || self.victim_cont <= 0.0 || self.victim_cont >= 1.0 {
            return Err(format!(
                "victim_cont = {}: must be in (0, 1)",
                self.victim_cont
            ));
        }
        if !self.victim_escape.is_finite()
            || self.victim_escape < 0.0
            || self.victim_escape >= 1.0
        {
            return Err(format!(
                "victim_escape = {}: must be in [0, 1)",
                self.victim_escape
            ));
        }
        Ok(())
    }

    /// Toggle the §5.3 dirty-mark elision optimization.
    pub fn with_votes_before_opt(mut self, on: bool) -> Self {
        self.td_votes_before_opt = on;
        self
    }

    /// Switch the queue implementation.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Switch the load-balancing policy.
    pub fn with_ldbal(mut self, ldbal: LbKind) -> Self {
        self.ldbal = ldbal;
        self
    }

    /// Switch the victim-selection policy.
    pub fn with_victim(mut self, victim: VictimPolicy) -> Self {
        self.victim = victim;
        self
    }

    /// Set the Locality victim-selection bias probabilities
    /// (continuation of the geometric walk, uniform escape).
    pub fn with_victim_probs(mut self, cont: f64, escape: f64) -> Self {
        self.victim_cont = cont;
        self.victim_escape = escape;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let c = TcConfig::new(64, 10, 1000)
            .with_queue(QueueKind::Locked)
            .with_ldbal(LbKind::Disabled);
        assert_eq!(c.max_body, 64);
        assert_eq!(c.chunk, 10);
        assert_eq!(c.max_tasks, 1000);
        assert_eq!(c.queue, QueueKind::Locked);
        assert_eq!(c.ldbal, LbKind::Disabled);
    }

    #[test]
    fn policy_defaults_and_builders() {
        let c = TcConfig::new(8, 1, 16);
        assert_eq!(c.victim, VictimPolicy::Locality);
        let old = c.with_victim(VictimPolicy::Uniform);
        assert_eq!(old.victim, VictimPolicy::Uniform);

        let c = TcConfig::new(8, 1, 16);
        assert_eq!(c.victim_cont, crate::victim::CONT_P);
        assert_eq!(c.victim_escape, crate::victim::ESCAPE_P);
        let tuned = c.with_victim_probs(0.5, 0.25);
        assert_eq!((tuned.victim_cont, tuned.victim_escape), (0.5, 0.25));
    }

    #[test]
    fn bad_victim_probs_rejected() {
        let base = TcConfig::new(8, 1, 16);
        for (cont, escape) in [(0.0, 0.1), (1.0, 0.1), (f64::NAN, 0.1), (0.7, 1.0), (0.7, -0.1)]
        {
            let bad = TcConfig {
                victim_cont: cont,
                victim_escape: escape,
                ..base
            };
            assert!(bad.validate().is_err(), "cont={cont} escape={escape}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        TcConfig::new(8, 0, 16);
    }

    #[test]
    #[should_panic(expected = "at least 2 tasks")]
    fn zero_max_tasks_rejected() {
        TcConfig::new(8, 1, 0);
    }

    #[test]
    fn validate_catches_struct_literal_violations() {
        // Struct-update syntax bypasses `new`'s checks; `validate` (run by
        // `TaskCollection::create`) must still reject the result.
        let bad_tasks = TcConfig {
            max_tasks: 0,
            ..TcConfig::new(8, 1, 16)
        };
        assert!(bad_tasks.validate().unwrap_err().contains("max_tasks = 0"));

        let bad_chunk = TcConfig {
            chunk: 0,
            ..TcConfig::new(8, 1, 16)
        };
        assert!(bad_chunk.validate().unwrap_err().contains("chunk size"));

        let bad_fraction = TcConfig {
            release_fraction: f64::NAN,
            ..TcConfig::new(8, 1, 16)
        };
        assert!(bad_fraction
            .validate()
            .unwrap_err()
            .contains("release_fraction"));

        assert!(TcConfig::new(8, 1, 16).validate().is_ok());
    }
}
