"""Martingale Hardy-amalgam toolkit on finite filtered probability spaces.

Five amalgam-based process norms, four constructive atomic-decomposition
ladders with two-sided bound certificates, and the Campanato-type duality
machinery, all exact on finite spaces.
"""

from .space import (
    INFINITY,
    SLACK,
    TOL,
    EnumerationOverflow,
    FilteredSpace,
    SpaceError,
    StoppingTime,
    conditional_ess_sup,
    conditional_expectation,
    count_stopping_times,
    enumerate_stopping_times,
    is_measurable,
    regularity_constant,
)
from .martingale import (
    Martingale,
    PredictorEnvelope,
    conditional_quadratic_variation,
    conditional_quadratic_variation_partial,
    differences,
    from_terminal,
    ladder_stopping_time,
    maximal_function,
    minimal_envelope,
    quadratic_variation,
    quadratic_variation_partial,
    stop,
)
from .norms import (
    all_five_norms,
    hardy_S_norm,
    hardy_s_norm,
    hardy_star_norm,
    lp_norm,
    lpq_norm,
    p_space_norm,
    q_space_norm,
)
from .atoms import (
    AtomTriple,
    BoundsCertificate,
    Decomposition,
    aggregate_eta_norm,
    certify_bounds,
    decompose,
    ladder_constant,
    reconstruct,
    verify_atom,
)
from .duality import (
    CampanatoResult,
    campanato_norm,
    certify_duality,
    pairing,
    phi,
    representer,
    reverse_minkowski_check,
)
from .harness import CorpusSpec, explore_embeddings, generate

__version__ = "0.1.0"
