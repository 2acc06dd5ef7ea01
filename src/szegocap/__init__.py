"""szegocap: capacity of doubly-dispersive Gaussian channels.

Quantizes time-varying transfer functions to block-circulant operators,
water-fills restricted spectra, and runs the asymptotic diagnostics that
compare the discrete capacity with the symbol-integral formula.
"""

from .errors import (AliasingError, ConfigurationError, DomainError,
                     NoCapacityError, NonHermitianError, SzegocapError,
                     TruncationWarning, UnsupportedSymbolError)
from .families import (KernelEnvelope, SymbolSpec, default_envelope,
                       eval_symbol, make_symbol, sample_symbol)
from .grid import Grid, make_grid
from .harness import (FitResult, SweepRecord, SweepReport, fit_loglog,
                      run_convergence_sweep, run_hs_boundary_check,
                      run_stability_check, run_symbol_calculus_check,
                      run_trace_norm_scaling)
from .operators import DiscreteOperator, assemble, hermitize, quantize
from .transforms import EnvelopeReport, envelope_check
from .waterfill import (WaterfillSolution, build_f_eps, rate_log, smoothstep,
                        waterfill_discrete, waterfill_symbol)

__version__ = "0.1.0"
