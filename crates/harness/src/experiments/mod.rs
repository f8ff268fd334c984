//! One module per table/figure of the paper's evaluation.

pub mod ablation;
pub mod density;
pub mod echo;
pub mod fault_study;
pub mod fig10;
pub mod fig11;
pub mod fuzz;
pub mod memory;
pub mod plan;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod trace;
