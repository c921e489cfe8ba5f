//! The Active Pages computation model.
//!
//! This crate implements the paper's primary contribution (Section 2): an
//! *Active Page* consists of a page of data and a set of associated functions
//! that operate on that data. A memory system implementing Active Pages is
//! responsible for both storing the data and computing the functions.
//!
//! The model, exactly as the paper defines it:
//!
//! * Standard memory interface functions `read(vaddr)` / `write(vaddr)` —
//!   provided by whatever system hosts the pages (see the `radram` crate).
//! * A set of functions available for computation on a page — the
//!   [`PageFunction`] trait.
//! * `AP_alloc(group_id, vaddr)` — allocation of pages into *page groups*
//!   ([`GroupId`], [`PageTable`]).
//! * `AP_bind(group_id, AP_functions)` — binding (and re-binding) a function
//!   set to a group ([`ActivePageMemory::ap_bind`]).
//! * Synchronization variables — ordinary memory words in a per-page control
//!   area ([`sync`]) polled by the functions and the processor.
//!
//! Timing and technology live elsewhere: this crate defines *what* page
//! functions compute and how much logic work it costs them (in logic-clock
//! cycles and logic elements); the `radram` crate supplies *when* (clock
//! divisors, activation costs, processor-mediated inter-page communication).
//!
//! # Examples
//!
//! Running a page function functionally with the ideal executor:
//!
//! ```
//! use active_pages::{Execution, IdealExecutor, PageFunction, PageSlice};
//!
//! /// Doubles the first four 32-bit words in the page body.
//! #[derive(Debug)]
//! struct Doubler;
//!
//! impl PageFunction for Doubler {
//!     fn name(&self) -> &'static str { "doubler" }
//!     fn logic_elements(&self) -> u32 { 40 }
//!     fn execute(&self, page: &mut PageSlice<'_>) -> Execution {
//!         let words = 4;
//!         for w in 0..words {
//!             let off = active_pages::sync::BODY_OFFSET + w * 4;
//!             let v = page.read_u32(off);
//!             page.write_u32(off, v * 2);
//!         }
//!         Execution::run(words as u64) // one logic cycle per word
//!     }
//! }
//!
//! let mut exec = IdealExecutor::new(1);
//! exec.write_u32(0, active_pages::sync::BODY_OFFSET, 21);
//! let summary = exec.activate(&Doubler, 0);
//! assert_eq!(exec.read_u32(0, active_pages::sync::BODY_OFFSET), 42);
//! assert_eq!(summary.logic_cycles, 4);
//! ```

// `deny` rather than `forbid`: the single sanctioned exception is the
// persistent page-worker pool in `parallel`, which erases one stack lifetime
// to reuse worker threads across batches (see that module's safety notes).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod function;
mod group;
mod ideal;
mod model;
mod page;
pub mod parallel;
pub mod settings;
mod slice;
pub mod sync;
mod table;

pub use ap_lint::footprint::{ByteIntervals, PageFootprint, StaticFootprint};
pub use function::{CopyRequest, ExecEvent, Execution, PageFunction};
pub use group::GroupId;
pub use ideal::{ActivationSummary, IdealExecutor};
pub use model::{descriptor, AppDescriptor, Partitioning, TABLE2};
pub use page::{PageId, PAGE_SIZE};
pub use slice::{split_pages, PageInfo, PageSlice};
pub use table::{ActivePageMemory, PageEntry, PageTable};
