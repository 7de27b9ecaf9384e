//! # bench — the harness that regenerates every table and figure
//!
//! One module per experiment; each returns structured results and knows
//! the paper's published values, so every launcher prints
//! `paper vs measured` rows. Launchers, one `cargo run -p bench --bin …`
//! each:
//!
//! | experiment | bin |
//! |---|---|
//! | Fig. 4 energy per class | `fig4` |
//! | Table 1 handlers | `table1` |
//! | §4.3 throughput | `throughput` |
//! | §4.3 wake-up latency | `wakeup` |
//! | §4.4 energy distribution | `energy_breakdown` |
//! | Fig. 5 Blink | `fig5_blink` |
//! | §4.6 Sense | `sense_compare` |
//! | §4.6 radio stack | `radiostack_compare` |
//! | Table 2 | `table2` |
//! | §4.7 summary | `summary` |
//! | per-handler profile of a relay node | `handler_profile` |
//! | bus-hierarchy ablation | `ablation_bus` |
//! | radio word-interface ablation | `ablation_radio` |
//! | compiler-quality ablation | `ablation_compiler` |
//! | voltage sweep (extension) | `ext_voltage_sweep` |
//! | CSMA contention (extension) | `ext_csma` |
//! | delivery under fading (extension) | `ext_loss` |
//! | idle-leakage sensitivity (extension) | `ext_leakage` |
//! | every experiment above, in order | `all_experiments` |
//!
//! The two `cargo bench -p bench` targets time the toolchain itself:
//! `sim_speed` (simulator throughput, `BENCH_sim_speed.json`) and
//! `lint_speed` (the static analyser, `BENCH_lint.json`).

#![warn(missing_docs)]

pub mod ablation;
pub mod experiments;
pub mod ext;
pub mod fig4;
pub mod paper;
pub mod report;
