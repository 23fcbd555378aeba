//! One descriptor module per figure/table of the paper's evaluation.
//!
//! Every module exposes a single `FIG: Figure` descriptor; [`ALL`] lists
//! them in the paper's presentation order. The `levi-bench` runner
//! executes figures exclusively through this registry, so each figure has
//! exactly one implementation.

use crate::runner::Figure;

pub mod ablation_mc_cache;
pub mod ablation_phi_policy;
pub mod ablation_scheduling;
pub mod ablation_tenancy;
pub mod ablation_translation;
pub mod fig05_phi;
pub mod fig16_decompress;
pub mod fig18_hashtable;
pub mod fig20_hats;
pub mod fig21_hats_breakdown;
pub mod fig22_invoke_buffer;
pub mod fig23_stream_buffer;
pub mod fig24_input_size;
pub mod fig25_system_size;
pub mod micro_kernels;
pub mod table04_area;
pub mod table05_config;

/// Every figure, in presentation order — the order `levi-bench run all`
/// executes and `levi-bench list` prints.
pub static ALL: &[Figure] = &[
    fig05_phi::FIG,
    fig16_decompress::FIG,
    fig18_hashtable::FIG,
    fig20_hats::FIG,
    fig21_hats_breakdown::FIG,
    fig22_invoke_buffer::FIG,
    fig23_stream_buffer::FIG,
    fig24_input_size::FIG,
    fig25_system_size::FIG,
    ablation_scheduling::FIG,
    ablation_mc_cache::FIG,
    ablation_phi_policy::FIG,
    ablation_translation::FIG,
    ablation_tenancy::FIG,
    micro_kernels::FIG,
    table04_area::FIG,
    table05_config::FIG,
];
