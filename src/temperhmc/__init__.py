"""Tempered-posterior sampling of small classifiers with replica-exchange
HMC, and model evidence by thermodynamic integration."""

__version__ = "0.1.0"

from .network import (NetworkArch, PriorBox, STANDARD_ARCHS, get_arch,
                      forward, energy, energy_gradient, prior_box,
                      init_standard, dataset_energy_fns)
from .data import (Dataset, DatasetStore, RawImageSet, parse_idx,
                   transform, stratified_indices, stratified_subset)
from .hmc import HmcConfig, StepSizeController, hmc_trajectory, \
    run_chain, velocity_verlet, tune_step_size, adapt_step_size
from .minimize import RMinConfig, RMinResult, rmin
from .replica import (RemdConfig, Replica, RunTrace, attempt_swap,
                      init_replica, make_ladder, measure_sweep, run_remd)
from .ti import (StiffnessDiag, TiConfig, TIResult, bridge_energy_fns,
                 compare, evidence, fit_stiffness, log_z0, run_ti,
                 simpson_uniform, ti_observable)
from .harness import anneal_stop, baseline_optimize, write_sweep_csv

__all__ = [name for name in dir() if not name.startswith("_")]
