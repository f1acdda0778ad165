//! The subcommands of the `scioto` executable, one module each (the two
//! UTS throughput figures share one). `args.rs` holds the table that
//! dispatches to them.

pub mod ablation;
pub mod analyze;
pub mod bench_diff;
pub mod check;
pub mod concurrent_obs;
pub mod fig4_termination;
pub mod fig5_fig6_apps;
pub mod table1;
pub mod tune;
pub mod uts_figs;
