//! # p3p-server — the server-centric P3P architecture
//!
//! This crate is the reproduction's core: the contribution of
//! *"Implementing P3P Using Database Technology"* (ICDE 2003). A web
//! site installs its P3P privacy policies in a relational database
//! once; at request time, each user's APPEL preference is translated
//! into SQL (or XQuery) and evaluated by the database engine, instead
//! of a specialized APPEL engine running in every client.
//!
//! Module map (paper section in parentheses):
//!
//! * [`meta_schema`] — the P3P element hierarchy that drives the
//!   generic decomposition (§5.1).
//! * [`generic`] — the schema-decomposition algorithm of Figure 8 and
//!   the data-population algorithm of Figure 10.
//! * [`optimized`] — the hand-optimized schema of Figure 14 and its
//!   shredder, with shred-time category augmentation (§5.4, §6.3.2).
//! * [`refschema`] — reference-file tables (Figure 16) and
//!   `applicablePolicy()` resolution (§5.3, §5.5).
//! * [`appel2sql`] — APPEL → SQL translation: the generic algorithm of
//!   Figure 11 and the optimized variant producing Figure 15 shapes.
//! * [`appel2xquery`] — APPEL → XQuery translation (Figure 17/18).
//! * [`xtable`] — the XTABLE stand-in: XQuery → SQL over the generic
//!   schema, with the complexity limit that reproduces the missing
//!   Medium entry of Figure 21.
//! * [`view`] — the XML reconstruction view over the shredded tables
//!   (§5.6).
//! * [`server`] — [`server::PolicyServer`]: install policies and
//!   reference files, match preferences with any engine.
//! * [`audit`] — the site-owner conflict auditing §4.2 motivates.
//! * [`enforce`] — the Privacy Constraint Validator of the paper's
//!   future-work direction (§7): internal data accesses checked against
//!   the shredded policy tables, with consent tracking and an audit
//!   log.
//! * [`versioning`] — policy version history over the database (§4.2:
//!   "Versions of policies can be better managed using a database
//!   system").
//! * [`verdict_cache`] — memoized verdicts under live policy churn:
//!   an LRU keyed by (preference fingerprint × policy id ×
//!   policy version × engine × execution options), invalidated
//!   precisely when a policy is re-shredded or removed.
//!
//! ## Quick example
//!
//! ```
//! use p3p_server::server::{EngineKind, PolicyServer, Target};
//! use p3p_policy::model::volga_policy;
//! use p3p_appel::model::{jane_preference, Behavior};
//!
//! let mut server = PolicyServer::new();
//! server.install_policy(&volga_policy()).unwrap();
//!
//! let outcome = server
//!     .match_preference(&jane_preference(), Target::Policy("volga"), EngineKind::Sql)
//!     .unwrap();
//! assert_eq!(outcome.verdict.behavior, Behavior::Request);
//! ```

pub mod appel2sql;
pub mod appel2xquery;
pub mod audit;
pub mod concurrent;
pub mod enforce;
pub mod error;
pub mod generic;
pub mod hybrid;
pub mod meta_schema;
pub mod optimized;
pub mod refschema;
pub mod server;
pub mod subset;
pub mod translation;
pub mod verdict_cache;
pub mod versioning;
pub mod view;
pub mod xtable;

pub use error::ServerError;
pub use server::{EngineKind, MatchOutcome, PolicyServer, Target};
