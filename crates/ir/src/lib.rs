//! # crellvm-ir
//!
//! A self-contained, LLVM-flavoured SSA intermediate representation.
//!
//! This crate is the substrate on which the rest of the crellvm framework is
//! built: the proof-generating optimization passes (`crellvm-passes`),
//! the ERHL proof checker (`crellvm-core`), and the reference interpreter
//! (`crellvm-interp`) all operate on the [`Module`] / [`Function`] /
//! [`Block`] / [`Inst`] types defined here.
//!
//! The IR deliberately mirrors the fragment of LLVM IR that the Crellvm
//! paper (PLDI 2018) reasons about:
//!
//! * integer arithmetic at bit widths i1/i8/i16/i32/i64,
//! * `icmp`, `select`, and the integer/pointer cast family,
//! * `alloca` / `load` / `store` and `getelementptr` **with and without the
//!   `inbounds` flag** (the flag whose erasure caused LLVM bugs
//!   PR28562/PR29057),
//! * `undef` and *trapping constant expressions* (the semantics behind
//!   LLVM bug PR33673),
//! * phi-nodes, conditional branches, `switch`, and calls.
//!
//! # Example
//!
//! ```
//! use crellvm_ir::parse_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     r#"
//!     declare @print(i32)
//!     define @main() {
//!     entry:
//!       %x = add i32 1, 2
//!       call void @print(i32 %x)
//!       ret void
//!     }
//!     "#,
//! )?;
//! assert_eq!(m.functions.len(), 1);
//! crellvm_ir::verify_module(&m)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod arith;
pub mod builder;
pub mod cfg;
pub mod constant;
pub mod dom;
pub mod function;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use constant::{Const, ConstExpr};
pub use dom::{DomTree, DominanceFrontier};
pub use function::{Block, BlockId, DefSite, Function, FunctionShellRef, Phi, RegId, Stmt};
pub use inst::{BinOp, CastOp, IcmpPred, Inst, Term};
pub use module::{ExternDecl, Global, Module};
pub use parser::{parse_module, ParseError};
pub use types::Type;
pub use value::Value;
pub use verify::{verify_function, verify_module, VerifyError};
