//! # acceval-ir
//!
//! The directive-annotated program IR for ACCEVAL: expressions, statements,
//! OpenMP-style parallel regions and clauses, the directive-dialect
//! annotations the GPU models add while porting, plus:
//!
//! * a tree-walking **interpreter** ([`interp`]) that runs programs on the
//!   simulated host CPU (the paper's sequential baseline and correctness
//!   oracle) and kernel bodies on the simulated GPU;
//! * **analyses** ([`analysis`]) — affine classification, access strides,
//!   reduction recognition, region feature summaries — the information the
//!   model compilers use to accept, reject, and optimize regions;
//! * **transformations** ([`transform`]) — inlining, parallel loop-swap,
//!   loop collapsing, strip-mining — the paper's optimization repertoire;
//! * the compiled **kernel plan** representation ([`kernel`]) and the GPU
//!   executor ([`interp::gpu`]);
//! * the one registry of harness **counters** ([`metrics`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod env;
pub mod expr;
pub mod interp;
pub mod kernel;
pub mod metrics;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod transform;
pub mod types;

pub use expr::{fc, ic, ld, v, BinOp, Expr, Intrin, UnOp};
pub use kernel::{axis, axis_from, Expansion, KernelPlan, MemSpace, ParAxis, ReduceStrategy, ReduceTarget};
pub use program::{ArrayDecl, DataSet, Function, HostData, Program, ScalarDecl};
pub use stmt::{DataClauses, ParInfo, ParallelRegion, Reduction, Stmt, UpdateDir};
pub use types::{ArrayId, FuncId, ReduceOp, RegionId, ScalarId, SiteId, Value, VarRef};
