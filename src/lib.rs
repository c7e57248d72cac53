//! # p3p-suite — server-centric P3P on database technology
//!
//! Umbrella crate re-exporting the whole reproduction of
//! *"Implementing P3P Using Database Technology"* (Agrawal, Kiernan,
//! Srikant, Xu — ICDE 2003). See the README for the architecture tour
//! and `examples/` for runnable walk-throughs.
//!
//! * [`xmldom`] — XML parsing/DOM/serialization substrate.
//! * [`policy`] — the P3P 1.0 policy model, base data schema,
//!   reference files, compact policies.
//! * [`appel`] — APPEL preferences and the native matching engine
//!   (the client-centric baseline).
//! * [`minidb`] — the in-memory relational engine (DB2 stand-in).
//! * [`xquery`] — the XQuery/XPath subset (XTABLE's query language).
//! * [`server`] — the paper's contribution: shredding, APPEL→SQL,
//!   APPEL→XQuery, and the policy server.
//! * [`workload`] — the synthetic Fortune-1000 corpus and JRC-style
//!   preference suite of §6.2.
//! * [`serve`] — the network-facing daemon: a dependency-free
//!   HTTP/1.1 listener with admission control, backpressure, and
//!   graceful drain over the concurrent matching layer.
//! * [`telemetry`] — structured spans, the metrics registry, and the
//!   slow-query log threaded through the matching pipeline.
//!
//! ## Thirty-second tour
//!
//! ```
//! use p3p_suite::server::{EngineKind, PolicyServer, Target};
//! use p3p_suite::policy::model::volga_policy;
//! use p3p_suite::appel::model::{jane_preference, Behavior};
//!
//! // A site installs its policy once (shredded into relational tables).
//! let mut server = PolicyServer::new();
//! server.install_policy(&volga_policy()).unwrap();
//!
//! // A user's APPEL preference arrives and is matched as SQL.
//! let outcome = server
//!     .match_preference(&jane_preference(), Target::Policy("volga"), EngineKind::Sql)
//!     .unwrap();
//! assert_eq!(outcome.verdict.behavior, Behavior::Request);
//! ```

pub use p3p_appel as appel;
pub use p3p_minidb as minidb;
pub use p3p_policy as policy;
pub use p3p_serve as serve;
pub use p3p_server as server;
pub use p3p_telemetry as telemetry;
pub use p3p_workload as workload;
pub use p3p_xmldom as xmldom;
pub use p3p_xquery as xquery;
