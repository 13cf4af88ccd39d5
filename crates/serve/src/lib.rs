//! Online prediction service for the ConvMeter models.
//!
//! `convmeter serve` turns the fitted runtime/scalability models into a
//! long-running, zero-dependency HTTP/1.1 JSON API: POST an architecture
//! (zoo name or raw graph JSON) plus device and cluster parameters to
//! `/predict` and get back predicted forward/step/epoch times, the scaling
//! curve with its turning point, and the bottleneck blocks. `/healthz`
//! answers liveness probes and `/metrics` exports the obs registry in
//! Prometheus text format.
//!
//! The interesting machinery is in [`state`]: coefficient sets are fitted
//! once per device profile (sharded on the device fingerprint, calibration
//! sweeps served by the engine's dataset store), and responses are cached
//! in an LRU keyed by request fingerprint and model name, whose slots
//! double as coalescing points — identical concurrent requests compute
//! exactly once.
//!
//! [`loadgen`] replays a seeded zipf query stream against the service and
//! emits the versioned [`slo::SloReport`] that `tools/slo_gate.sh` compares
//! against the committed `BENCH_slo.json`; [`chaos`] arms that stream with
//! deterministic protocol-level attacks (malformed heads, slow-loris,
//! disconnects, bursts) whose expected outcomes the report asserts on. The
//! [`server`] side answers with admission control, a whole-request deadline
//! budget, and graceful drain. See `docs/serving.md` for the wire schema,
//! the gate contract, and the resilience limits.

#![warn(missing_docs)]

pub mod api;
pub mod chaos;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod slo;
pub mod state;

pub use api::{PredictRequest, PredictResponse, API_FORMAT};
pub use chaos::{ChaosAction, ChaosOutcome, ChaosProfile};
pub use loadgen::{LoadgenConfig, Workload};
pub use server::{HealthState, Server, ServerConfig, ServiceHealth};
pub use slo::{SloBaseline, SloContract, SloReport, SLO_FORMAT};
pub use state::{CacheOutcome, CacheStats, ServeConfig, ServeState};
