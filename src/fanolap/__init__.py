"""Numerical toolkit for line shapes of overlapping resonances.

Covers equivalent closed forms of the one-channel S matrix (unitary
product, static and dynamic pole expansions, degenerate double pole), the
resulting Fano-type line-shape parametrizations with energy-dependent and
energy-independent asymmetry parameters, the background phases at which a
narrow resonance turns into a window dip or a symmetric peak, grid scans
for reference figures, and least-squares fitting of Fano profiles.
"""

from .errors import (
    BadInitialGuess,
    DoublePoleSingularity,
    EqualWidthsSingularity,
    FanolapError,
    InsufficientData,
    NegativeAkError,
    NoFiniteSolution,
    ValidationError,
)
from .fano import (
    ComplexFanoParams,
    FanoStaticParams,
    breit_wigner_energy,
    double_pole_fano,
    fano_complex_params,
    fano_cross_section_complex,
    fano_cross_section_dynamic,
    fano_cross_section_static,
    fano_q_dynamic,
    fano_static_params,
    window_energy,
)
from .fit import (
    FanoFitResult,
    FanoProfileModel,
    fit_fano,
    fit_result_to_dict,
    format_fit_json,
    initial_guess,
    predict,
    read_trace_csv,
)
from .model import (
    EnergyGrid,
    Resonance,
    ScatteringModel,
    complex_energy,
    epsilon,
    load_model,
    model_from_dict,
    model_to_dict,
    resonance_phase,
    save_model,
)
from .scan import (
    ContourGrid,
    CrossSectionTrace,
    Figure1Panel,
    Figure2Result,
    Figure2Variant,
    TraceMeta,
    compare_representations,
    contour,
    figure1,
    figure2,
    figure2_model,
    format_contour_csv,
    format_trace_csv,
    trace,
    write_contour_csv,
    write_trace_csv,
)
from .smatrix import (
    CouplingPair,
    Representation,
    coupling_w_dynamic,
    coupling_w_static,
    cross_section,
    cross_section_noninteracting,
    s_double_pole,
    s_pole,
    s_unitary_product,
)

__version__ = "0.1.0"
