"""Total-variation deblurring with structure-aware fast preconditioners.

Modules:

* ``transforms`` -- fast cosine / sine / anti-reflective transforms,
* ``blur``       -- matrix-free blur operators under four boundary rules,
* ``tv``         -- lagged-diffusivity diffusion operator,
* ``precond``    -- transform-algebra projections and factored
                    preconditioners,
* ``krylov``     -- preconditioned CG / BiCGstab,
* ``pipeline``   -- the configuration table, the outer fixed-point
                    restoration loop, each step's system and solve, and
                    its optimality residual,
* ``harness``    -- benchmark generation, parameter sweeps, file output,
* ``cli``        -- the ``tvdeblur`` command.
"""

from .blur import BoundaryCondition, StructuredBlurOperator, SymmetricPsf
from .krylov import KrylovConfig, SolveOutcome, pbicgstab, pcg
from .pipeline import (
    Formulation,
    PrecondSelector,
    RestorationConfig,
    RestorationReport,
    restore,
)
from .transforms import TransformKind
from .tv import DiffusionBc, DiffusionOperator

__all__ = [
    "BoundaryCondition",
    "DiffusionBc",
    "DiffusionOperator",
    "Formulation",
    "KrylovConfig",
    "PrecondSelector",
    "RestorationConfig",
    "RestorationReport",
    "SolveOutcome",
    "StructuredBlurOperator",
    "SymmetricPsf",
    "TransformKind",
    "pbicgstab",
    "pcg",
    "restore",
]
