pub mod drives;
pub mod workload;
