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

The top level re-exports the ``__all__`` of every module but ``cli``, so each
public name is declared once, in its module.
"""

from ._version import __version__
from .errors import *
from .fields import *
from .forward import *
from .illum import *
from .recon import *
from .gauge import *
from .apps import *
from .harness import *

__all__ = [name for name in dir() if not name.startswith("_")]
