"""Cryptographic enforcement of hierarchical read policies without public
derivation information.

Given a policy over partially ordered security labels, this package picks
the derivation out-tree that minimizes total key hand-outs, computes each
label's start points, and instantiates key generation and derivation with
a PRF. Baseline schemes and brute-force verification oracles are included
for comparison and certification.
"""

from .allocation import (
    SchemeMetrics,
    canonical_allocation,
    scheme_metrics,
    start_points,
    validate_enforcement,
)
from .baselines import (
    chain_metrics,
    chain_scheme_build,
    classic_scheme_metrics,
)
from .errors import (
    AuthorizationError,
    CycleError,
    PolicyError,
    UnknownLabelError,
    VerificationError,
)
from .kdf import (
    KEY_BYTES,
    SecretStore,
    SigmaBundle,
    derive,
    encode_label,
    prf,
    seeded_bytes,
    setup,
)
from .poset import (
    VIRTUAL_ROOT,
    ChainPartition,
    Poset,
    ensure_root,
    min_chain_partition,
    parse_policy,
    transitive_closure,
    transitive_reduction,
    width,
)
from .trees import (
    DerivationOutTree,
    min_leaf_out_tree,
    min_weight_out_tree,
    validate_tree,
    weight_function,
)

__version__ = "0.1.0"
