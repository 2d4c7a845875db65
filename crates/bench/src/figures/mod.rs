//! One module per paper table/figure; each exposes `run(Scale)` returning
//! structured rows, and the paper's claims about them, that the
//! [`crate::paper`] registry prints and checks.

pub mod ablations;
pub mod fig01;
pub mod fig02;
pub mod fig08;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig26;
pub mod table1;
pub mod table2;
