//! Bench-side tooling that is useful as a library: the dependency-free
//! JSON reader consumed by the `bench` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
