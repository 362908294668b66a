"""Sampling-based MPC: MPPI and its Stein-refined variant (SOPPI)."""

__version__ = "0.1.0"

from .controller import (ControllerConfig, StepResult, compute_weights,
                         evaluate_batch, mppi_step, run_episode, soppi_step,
                         update_nominal)
from .cost import CostSpec, cost_to_go, running_cost, running_cost_gradients, \
    terminal_cost, wrap_angle
from .dynamics import (CartPole, CartPoleParams, DoubleIntegrator, Jacobians,
                       Pendulum, System, make_system, rollout)
from .metrics import (SettlingCriterion, TrialRecord, mse, settling_time,
                      summarize, welch_t_test_one_tailed)
from .sampling import NoiseTensor, SampleBatch, draw_noise, perturb
from .svgd import (ParticleSet, SvgdConfig, kernel, kernel_grad_wrt_first,
                   median_bandwidth, stein_direction)

__all__ = [
    "CartPole", "CartPoleParams", "ControllerConfig", "CostSpec",
    "DoubleIntegrator", "Jacobians", "NoiseTensor", "ParticleSet",
    "Pendulum", "SampleBatch", "SettlingCriterion", "StepResult",
    "SvgdConfig", "System", "TrialRecord", "compute_weights",
    "cost_to_go", "draw_noise", "evaluate_batch", "kernel",
    "kernel_grad_wrt_first", "make_system", "median_bandwidth",
    "mppi_step", "mse", "perturb", "rollout", "run_episode",
    "running_cost", "running_cost_gradients", "settling_time",
    "soppi_step", "stein_direction", "summarize", "terminal_cost",
    "update_nominal", "welch_t_test_one_tailed", "wrap_angle",
]
