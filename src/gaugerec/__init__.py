"""Recovery of anisotropic second-order PDE coefficients from interior
solution data, up to the intrinsic multiplicative gauge.

The package is organized bottom-up:

``fields``    grids, typed fields, calculus stencils, serialization
``forward``   coefficient sets, Dirichlet solver, gauge action, synthesis
``illum``     boundary illumination families and admissibility seeds
``recon``     the pointwise reconstruction engine and patch stitching
``gauge``     scalar-factor (tau) recovery
``apps``      photoacoustic and elastography front ends
``harness``   presets, experiment configs, noise, reports
``cli``       the ``gaugerec`` command
"""

from ._version import __version__
from .errors import (
    ComplexCoefficients,
    ConfigError,
    CoverageFailure,
    DegenerateTensor,
    EllipticityViolation,
    FrameDegenerate,
    GridMismatch,
    MDependent,
    NonFiniteData,
    NonIntegrableField,
    NonPositiveH1,
    SingularSystem,
    ToolkitError,
    VanishingGauge,
    VanishingU1,
)
from .fields import (
    SYM_PAIRS,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    divergence,
    divergence_tensor,
    gradient,
    hessian,
    grad_values,
    hess_values,
    load_field,
    mollify,
    save_field,
)
from .forward import (
    BoundaryTrace,
    CoefficientSet,
    DirichletSystem,
    gauge_transform,
    synthesize,
)
from .illum import (
    ExponentialMember,
    IlluminationSet,
    PolynomialMember,
    cgo_family,
    complement_basis,
    constant_tensor_family,
    harmonic_family,
    local_polynomial_family,
    num_generators,
    num_solutions,
    plane_wave_family,
)
from .recon import (
    ClassRepresentative,
    EngineConfig,
    FrameData,
    MBundle,
    PatchMap,
    RatioBundle,
    build_frame,
    build_M,
    build_ratios,
    reconstruct_class,
    reconstruct_global,
    unit_gauge_triple,
)
from .gauge import (
    curl_residual,
    integrate_gradient,
    recover_tau_b_zero,
    recover_tau_divfree_b,
    recover_tau_known_phi,
)
from .apps import (
    ElastoData,
    QpatData,
    elasto_reconstruct,
    qpat_reconstruct,
)
from .harness import (
    ExperimentConfig,
    PRESETS,
    Preset,
    ReconstructionReport,
    add_noise,
    noise_realization,
    run,
    square_grid,
    triple_errors,
    unit_truth,
    write_manifest,
)

__all__ = [name for name in dir() if not name.startswith("_")]
