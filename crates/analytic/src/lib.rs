//! Analytic performance model of partitioned Active-Page applications
//! (paper, Section 7.4 and Figure 7).
//!
//! From the processor's perspective a partitioned application executes three
//! phases per page: dispatch (activation time `T_A`), wait for the result
//! (non-overlap `NO`), and post-compute (`T_P`); each page's logic runs for
//! `T_C`. The model is:
//!
//! ```text
//! NO(i) = max(0, T_C(i) − (Σ_{n=i+1..K} T_A(n) + Σ_{n=1..i−1} T_P(n)
//!                           + Σ_{n=1..i−1} NO(n)))
//! Speedup_partitioned = T_conv · α · K / Σ_i (T_A(i) + T_P(i) + NO(i))
//! Speedup_overall     = 1 / ((1 − F) + F / Speedup_partitioned)
//! ```
//!
//! [`PageTimes`] carries per-page values, [`ConstModel`] the constant-time
//! simplification used for Table 4, [`calibrate`] extracts `(T_A, T_P, T_C)`
//! from a measured RADram run, and [`pearson`] computes the model-vs-measured
//! speedup correlation of Table 4's rightmost column.
//!
//! # Examples
//!
//! ```
//! use ap_analytic::ConstModel;
//!
//! // Table 4's array-insert row: T_A ≈ 2 µs, T_P ≈ 0.4 µs, T_C ≈ 1.25 ms
//! // (in cycles at 1 GHz).
//! let m = ConstModel { t_a: 2058.0, t_p: 387.0, t_c: 1_250_000.0 };
//! let k = m.pages_for_overlap(10_000_000);
//! // Complete overlap requires thousands of pages, like the paper's 3225.
//! assert!(k > 1_000 && k < 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod model;
mod regions;
mod stats;

pub use calibrate::{calibrate, Calibration};
pub use model::{amdahl, non_overlap, ConstModel, PageTimes};
pub use regions::{fig1_series, Fig1Point};
pub use stats::pearson;
