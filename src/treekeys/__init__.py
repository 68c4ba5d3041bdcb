"""Cryptographic enforcement of hierarchical read policies without public
derivation information.

Given a policy over partially ordered security labels, this package picks
the derivation out-tree that minimizes total key hand-outs, computes each
label's start points, and instantiates key generation and derivation with
a PRF. Baseline schemes and brute-force verification oracles are included
for comparison and certification. The baselines, the oracles and sealing
are compiled and executed only when one of their names is first read.
"""

import importlib.util
import sys
from types import ModuleType

from .allocation import (
    SchemeMetrics,
    canonical_allocation,
    scheme_metrics,
    start_points,
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
    min_chain_partition,
    parse_policy,
    width,
)
from .trees import (
    DerivationOutTree,
    min_leaf_out_tree,
    min_weight_out_tree,
    validate_tree,
)

__version__ = "0.1.0"


def _defer(name: str) -> ModuleType:
    """Submodule ``name``, registered in ``sys.modules`` but compiled and
    executed only when an attribute of it is first read."""
    qualified = f"{__name__}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    return module


# bound here as an import binds a submodule, under the package's import lock;
# each executes when one of its names is first read
baselines, oracles, sealing = _defer("baselines"), _defer("oracles"), _defer("sealing")
