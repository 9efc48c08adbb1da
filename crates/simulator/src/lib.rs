#![forbid(unsafe_code)]

//! # heteroprio-simulator
//!
//! Discrete-event simulation of a task-based runtime system (the StarPU-like
//! substrate of the paper's experiments): the engine tracks time, workers and
//! dependency release; a
//! [`KernelPolicy`](heteroprio_core::kernel::KernelPolicy) owns the ready
//! queue and all placement decisions, including spoliation. Policies are
//! written against the shared kernel's interface directly, and see the DAG's
//! transfer penalties through
//! [`KernelContext::duration`](heteroprio_core::kernel::KernelContext::duration).
//!
//! The engine is deterministic, validates policy behaviour (readiness,
//! cross-class spoliation with strict improvement, absence of deadlock), and
//! returns a [`heteroprio_core::Schedule`] that can be checked against the
//! task graph.

pub mod engine;
pub mod fault;

pub use engine::{
    simulate, simulate_traced, simulate_with, try_resume_faulty, try_simulate_durable,
    try_simulate_faulty, try_simulate_faulty_metered, SimResult, TransferModel,
};
pub use fault::{FaultPlan, FaultSpec, RetryPolicy, SimError, WorkerFault};
