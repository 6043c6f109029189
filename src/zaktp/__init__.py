"""Zak transforms of totally positive windows of finite type.

Closed-form evaluation of the windows and their exponential-B-spline
factorization, complexified Zak transforms as closed-form lattice sums,
zero location and zero-free certification, truncation convergence
diagnostics, and Gabor frame bounds (continuous estimates from one
separable Zak grid, and discrete tests from the discrete Zak spectrum).

``ZAKTP_THREADS`` caps BLAS/OpenMP threads.  The cap is applied here, before
NumPy is first imported, because the BLAS libraries read their thread
variables only when they load; variables the user sets explicitly win.
"""
import os as _os

_cap = _os.environ.get("ZAKTP_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

from .analysis import (
    Region,
    ZeroCertificate,
    certify_zero_free,
    locate_zero_half,
    reduced_slice_monotonicity,
    unit_monotone_offset,
)
from .convergence import (
    WeightGenerator,
    convergence_sweep,
    psi_decay_diagnostic,
    truncate,
    weighted_sup_distance,
    zak_strip_distance,
)
from .ebspline import (
    PiecewiseExpPoly,
    build_ebspline,
    eval_ebspline,
)
from .errors import (
    EmptyInput,
    IllConditioned,
    Indivisible,
    MultipleZeros,
    NotUnitMonotone,
    NoZero,
    PoleHit,
    SigmaTooLarge,
    StripViolation,
    ZakTPError,
    ZeroWeight,
)
from .frames import (
    DiscreteWindow,
    FrameBoundsReport,
    discrete_frame_test,
    frame_bounds,
    periodize_sample,
)
from .report_io import write_report
from .weights import (
    WeightMultiset,
    eval_tp,
    exp_sum_rep,
    fourier_tp,
    make_weights,
)
from .zak import (
    ZakGrid,
    compute_zak_grid,
    zak_dilation_check,
    zak_ebspline,
    zak_factorized,
    zak_inversion_check,
    zak_prefactor,
    zak_tp,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
