"""Representation varieties of Baumslag-Solitar groups: construction,
moment-map gradient flow to minimal vectors, finite-order certification,
and in-variety retraction onto unitary representations.

Importing the package before numpy pins OpenBLAS, OpenMP and MKL to one
thread unless the environment already sets a count: the library's
matrices are small, and a BLAS thread pool makes their products several
times slower.  A process that imported numpy first keeps its threads.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

from .bsrep import (
    BSGroup,
    Rep,
    conjugate,
    direct_sum,
    from_orbit_datum,
    random_rep,
    relation_residual,
    rep_from_json,
    rep_to_json,
)
from .census import (
    OrbitDatum,
    enumerate_orbits,
    order_bound,
    order_moduli,
    verify_orbit,
)
from .compactify import (
    Certificate,
    HermitianForm,
    certify,
    conjugate_into_unitary,
    detect_finite_order,
    invariant_form,
    normality_exponent,
)
from .errors import (
    BsretractError,
    GroupMismatch,
    InvalidOrbit,
    NoConvergence,
    NotARootOfUnity,
    NotFiniteOrder,
    NotNormalizing,
    NotPositiveDefinite,
    PipelineStageError,
    PolarObstruction,
    SingularMatrix,
)
from .kempfness import (
    FlowConfig,
    FlowTrace,
    flow,
    kn_energy,
    minimality_certificate,
    moment_map,
    schur_gap,
)
from .numerics import (
    PolarFactors,
    RootOfUnity,
    eigvals,
    hs_norm,
    polar,
    snap_root_of_unity,
    unitarity_defect,
)
from .retraction import (
    PipelineDiagnostics,
    RetractionPath,
    full_pipeline,
    retract_a,
    verify_unitary_rep,
)

__version__ = "0.1.0"
