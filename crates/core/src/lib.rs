//! Batch-dynamic connectivity in the streaming MPC model — the core
//! contribution of *"Streaming Graph Algorithms in the Massively
//! Parallel Computation Model"* (Czumaj, Mishra, Mukherjee, PODC'24).
//!
//! [`Connectivity`] maintains, for an evolving graph on `n` vertices:
//!
//! * a **component id** per vertex (the smallest vertex id of its
//!   component),
//! * an explicit **spanning forest**, stored as distributed Euler
//!   tours ([`mpc_etf::DistEtf`]),
//! * `t = Θ(log n)` independent **AGM sketches** per vertex
//!   ([`mpc_sketch::SketchBank`]),
//!
//! and processes batches of up to `Õ(n^φ)` edge insertions and
//! deletions in `O(1/φ)` MPC rounds with `O(n log³ n)` total memory
//! (Theorems 1.1 and 6.7). Queries are free: the solution is
//! maintained explicitly.
//!
//! The update protocol follows the paper exactly:
//!
//! * **Insertions** (Section 6.1): update sketches; build the
//!   auxiliary graph `H` on the touched components at a coordinator
//!   (it has `O(k)` nodes and edges — Claim 6.1); compute a spanning
//!   forest `F_H`; splice the corresponding Euler tours in one
//!   `batch_join`; broadcast the component-relabeling map.
//! * **Deletions** (Section 6.3): update sketches; `batch_split` the
//!   tours along the deleted tree edges; converge-cast the merged
//!   sketches of every resulting piece; run Borůvka over the pieces
//!   at the coordinator, consuming sketch copy `i` at level `i`;
//!   `batch_join` the replacement edges; broadcast new component ids.
//!   The pieces form a union of whole pre-batch components, so their
//!   sketches sum to zero (Lemma 3.3): at each level the host derives
//!   the largest active supernode's sketch as the negated sum of the
//!   other supernodes' instead of folding its columns, whenever that
//!   folds fewer columns. The cells are bit-identical either way, and
//!   the model still charges the full converge-cast.
//!
//! # Examples
//!
//! ```
//! use mpc_stream_core::{Connectivity, ConnectivityConfig};
//! use mpc_graph::ids::Edge;
//! use mpc_graph::update::{Batch, Update};
//! use mpc_sim::{MpcConfig, MpcContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MpcConfig::builder(64, 0.5).local_capacity(1 << 14).build();
//! let mut ctx = MpcContext::new(cfg);
//! let mut conn = Connectivity::new(64, ConnectivityConfig::default(), 42);
//! conn.apply_batch(
//!     &Batch::from_updates(vec![
//!         Update::Insert(Edge::new(0, 1)),
//!         Update::Insert(Edge::new(1, 2)),
//!     ]),
//!     &mut ctx,
//! )?;
//! assert!(conn.connected(0, 2));
//! assert_eq!(conn.component_of(2), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod connectivity;
pub mod query;
pub mod robust;
pub mod session;
pub mod streaming;
pub mod vertex_dynamic;

pub use connectivity::{Connectivity, ConnectivityConfig, ConnectivityError};
pub use query::{canonical_component_count, unsupported_query, QueryRequest, QueryResponse};
pub use robust::{RobustConnectivity, RobustError};
pub use session::{
    ensure_endpoints_in, ensure_vertex_in, route_batch, CheckpointReceipt, Handle, Maintain,
    MaintainerId, MaintainerLoader, MaintainerRegistry, Session,
};
pub use streaming::StreamingConnectivity;
pub use vertex_dynamic::{VertexDynError, VertexDynamicConnectivity};
