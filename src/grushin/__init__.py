"""Spectral calculus and bilinear summability means for the degenerate
two-layer operator -Laplacian_{x'} - |x'|^2 Laplacian_{x''}.

The package provides the scaled Hermite spectral layer, the control
geometry, linear and joint multiplier calculus with kernels, the
bilinear means with a direct path and a Fourier-series separated path
that checks it, smoothness-threshold tables, and a suite of
regression-style probes for the weighted kernel and decay estimates.
"""

__version__ = "0.1.0"

from .calculus import (apply_joint_multiplier, apply_linear_multiplier,
                       bilinear_kernel, linear_kernel, sobolev_product_norm)
from .dims import ConfigError, Dims
from .fields import (GriddedField, SpectralField, analyze, lp_norm,
                     mixed_norm, read_field_binary, synthesize,
                     write_field_binary, write_field_csv)
from .geometry import Point, ball_volume, control_distance
from .grid import Grid, GridSpec, make_grid
from .hermite import (HermiteTable, build_hermite_table, hermite_eval,
                      projection_kernel, scaled_hermite_eval)
from .report import ProbeReport
from .riesz import (FourierSeriesExpansion, bilinear_apply_direct,
                    bilinear_apply_separated, build_expansion,
                    dilation_covariance_check)
from .symbols import (DyadicCutoff, DyadicPiece, RieszParams, Symbol1D,
                      Symbol2D, dyadic_piece_symbol, riesz_symbol)
from .thresholds import RegionVerdict, threshold, threshold_table
from .verifier import (DecayProbeSpec, coefficient_decay_probe,
                       dyadic_decay_probe, mixed_norm_decay_probe,
                       pointwise_kernel_probe, weighted_plancherel_probe)

__all__ = [name for name in dir() if not name.startswith("_")]
