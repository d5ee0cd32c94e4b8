"""riszf: uplink RIS-aided massive MIMO with ZF detection under imperfect CSI.

Channel synthesis, MMSE channel estimation, Monte-Carlo and closed-form
ergodic rates with analytical bounds, and MM-based phase-shift optimization.
"""

__version__ = "0.1.0"

from .channel import PhaseShifts, build_los, decompose_grid, steering_vector
from .config import SystemConfig, dbm_to_watt, default_profile, parse_config_file
from .errors import ConfigError, NumericalError
from .estimation import ChannelStatistics, compute_statistics
from .optimizer import (FractionalProblem, OptTrace, align_phase, build_problem, mm_optimize,
                        quantize_phase)
from .rate import (MonteCarloRate, exact_rate_mc, phase_independent_bound, rate_lower_bound,
                   power_scaling_limit, required_antennas, upper_bound)

__all__ = [
    "__version__",
    "PhaseShifts", "build_los", "decompose_grid", "steering_vector",
    "SystemConfig", "dbm_to_watt", "default_profile", "parse_config_file",
    "ConfigError", "NumericalError",
    "ChannelStatistics", "compute_statistics",
    "FractionalProblem", "OptTrace", "align_phase", "build_problem",
    "mm_optimize", "quantize_phase",
    "MonteCarloRate", "exact_rate_mc", "phase_independent_bound", "rate_lower_bound",
    "power_scaling_limit", "required_antennas", "upper_bound",
]
