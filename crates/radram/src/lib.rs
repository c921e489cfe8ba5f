//! RADram — the Reconfigurable Architecture DRAM implementation of Active
//! Pages (paper, Section 3), plus the full-system simulator used for every
//! experiment in the evaluation.
//!
//! RADram integrates a block of reconfigurable logic (256 4-LUT logic
//! elements) with each 512 KB DRAM subarray. Each subarray plus its logic
//! hosts one Active Page. The processor talks to pages through ordinary
//! memory operations; synchronization variables in each page's control area
//! start computations and publish results. Inter-page references are
//! *processor mediated*: a page that needs non-local data blocks and raises
//! an interrupt, and the processor performs the copy.
//!
//! The central type is [`System`]: a 1 GHz processor (`ap-cpu`) behind the
//! Table 1 cache hierarchy (`ap-mem`), backed by either a conventional DRAM
//! memory system or a RADram Active-Page memory system. Applications are
//! written against `System` once per partition (conventional and
//! Active-Page) and the benchmark harness compares the two.
//!
//! # Examples
//!
//! ```
//! use radram::{RadramConfig, System};
//! use active_pages::{ActivePageMemory, Execution, GroupId, PageFunction, PageSlice, sync};
//! use std::sync::Arc;
//!
//! /// A page function that sums the first `n` body words.
//! #[derive(Debug)]
//! struct Summer;
//! impl PageFunction for Summer {
//!     fn name(&self) -> &'static str { "summer" }
//!     fn logic_elements(&self) -> u32 { 64 }
//!     fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
//!         let n = page.ctrl(sync::PARAM) as usize;
//!         let mut sum = 0u32;
//!         for i in 0..n {
//!             sum = sum.wrapping_add(page.read_u32(sync::BODY_OFFSET + 4 * i));
//!         }
//!         page.set_ctrl(sync::RESULT, sum);
//!         page.set_ctrl(sync::STATUS, sync::DONE);
//!         Execution::run(n as u64) // one 32-bit word per logic cycle
//!     }
//! }
//!
//! let mut sys = System::radram(RadramConfig::reference());
//! let g = GroupId::new(0);
//! let base = sys.ap_alloc_pages(g, 1); // one 512 KB Active Page
//! sys.ap_bind(g, Arc::new(Summer));
//! for i in 0..4 {
//!     sys.store_u32(base + (sync::BODY_OFFSET + 4 * i) as u64, 10);
//! }
//! sys.write_ctrl(base, sync::PARAM, 4);
//! sys.activate(base, 1);
//! sys.wait_done(base);
//! assert_eq!(sys.read_ctrl(base, sync::RESULT), 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod hosttime;
pub mod paging;
mod state;
mod stats;
mod system;

pub use ap_cpu::ExecMode;
pub use config::{CommMode, RadramConfig, ServiceMode};
pub use hosttime::take_kernel_host_secs;
pub use stats::SystemStats;
pub use system::{PageActivation, System};
