//! AI-chip substrate: quantized inference, fault criticality, replicated
//! -core hierarchical test, and streaming-scan-network planning.
//!
//! Covers the tutorial's parts 1, 2 and 4: the deep-learning workload (an
//! int8 inference engine whose matmuls execute on a fault-injectable
//! behavioural systolic-array model), and the DFT case studies unique to
//! AI chips — testing many identical cores by pattern broadcast/reuse and
//! delivering scan data through a shared streaming bus.
//!
//! The gate-level systolic array (in `dft_netlist::generators`) is the
//! structural DFT target; the behavioural model here is its functional
//! view, used to ask "which structural faults matter for inference
//! accuracy?" (experiment E9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod criticality;
mod hier;
mod inference;
mod ssn;
mod wrapper;

pub use criticality::{criticality_sweep, CriticalityReport, FaultSiteClass};
pub use hier::{
    broadcast_screen, hierarchical_plan, schedule_cycles, seeded_defect, CoreTestPlan, SocConfig,
};
pub use inference::{Dataset, Mlp, PeFault, QuantConv2d, QuantLinear, SystolicModel};
pub use ssn::{ssn_plan, DeliveryStyle, SsnPlan};
pub use wrapper::{wrap_core, WrappedCore, WrapperMode};
