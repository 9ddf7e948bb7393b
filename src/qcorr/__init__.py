"""qcorr: can a local channel create quantum correlation?

A trace-preserving channel acting on one side of a bipartite system can
turn some classical-on-B state into a quantumly correlated one if and only
if it fails to preserve commutativity of density operators.  This package
implements the detectors, classifiers, witness constructions, and
fidelity-bound checks built on that criterion, for local dimensions up to
about eight.
"""

__version__ = "0.1.0"

from .channels import (
    KrausChannel,
    block_unitary_mixture,
    choi_matrix,
    completely_decohering,
    depolarizing,
    identity_channel,
    isotropic,
    isotropic_p_range,
    kraus_from_choi,
    unital_mixture,
    unitary_channel,
)
from .classify import (
    ClassificationVerdict,
    CPVerdict,
    CreationWitness,
    IsotropicFit,
    MsfBoundCheck,
    MsfResult,
    ScanReport,
    block_overlap,
    block_overlap_enables_creation,
    classify_channel,
    classify_qubit,
    classify_qutrit,
    find_decohering_basis,
    fit_isotropic,
    is_commutativity_preserving,
    is_mixing_sampled,
    is_unital,
    msf,
    msf_batch,
    scan_channels,
    verify_msf_bound,
    witness_from_pair,
)
from .sampling import rng_from_seed, substream
from .states import (
    BipartiteState,
    ClassicalityReport,
    DensityMatrix,
    block_decompose,
    is_classical_on_b,
    make_half_classical,
    measure_and_dephase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
