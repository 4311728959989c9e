"""tatkit: third-order (tensor) attention engines and verification tools.

Two interchangeable gradient engines for the Kronecker-structured attention
loss: an exact dense cubic engine and an almost-linear low-rank engine built
on truncated-series feature maps, plus hard-instance probes and a CLI for
generation, verification, and scaling benchmarks.  The two
Kronecker-family products ``col_kron`` and ``row_kron`` write out the
specification both engines are tested against (the dense intermediates and
the factor builders); neither engine calls them.
"""

from .errors import NumericalError, TatError, ToleranceError, ValidationError
from .exact import (
    ExactIntermediates,
    attention_weights,
    compute_intermediates,
    forward,
    grad_exact,
    grad_fd,
    loss,
)
from .fastgrad import (
    FastGradientReport,
    build_Pa_factors,
    build_Pb_factors,
    build_residual_U2,
    build_W_factors,
    grad_fast,
)
from .hardness import (
    HardInstance,
    avg_estimate,
    f_prime,
    make_hard_instance,
)
from .instance import AttnInstance, random_instance
from .lowrank import (
    LowRankTriple,
    MonomialBasis,
    build_basis,
    build_F_factors,
    choose_degree,
    feature_map,
)
from .tensorops import col_kron, row_kron

__version__ = "0.1.0"

__all__ = [
    "AttnInstance",
    "ExactIntermediates",
    "FastGradientReport",
    "HardInstance",
    "LowRankTriple",
    "MonomialBasis",
    "NumericalError",
    "TatError",
    "ToleranceError",
    "ValidationError",
    "attention_weights",
    "avg_estimate",
    "build_F_factors",
    "build_Pa_factors",
    "build_Pb_factors",
    "build_W_factors",
    "build_basis",
    "build_residual_U2",
    "choose_degree",
    "col_kron",
    "compute_intermediates",
    "f_prime",
    "feature_map",
    "forward",
    "grad_exact",
    "grad_fast",
    "grad_fd",
    "loss",
    "make_hard_instance",
    "random_instance",
    "row_kron",
]
