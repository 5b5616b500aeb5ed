"""shadowlab: shadows, links, Kruskal-Katona type bounds, forbidden-family
checks, exhaustive enumeration, and stability experiments for uniform
hypergraphs."""

__version__ = "0.1.0"

from .constructions import (
    PartitionSpec,
    Perturbation,
    clique_expansion_graph,
    complete,
    expansion,
    fano,
    perturb,
    turan,
    turan_padded,
)
from .forbidden import (
    Cancellative,
    Expansion,
    Witness,
    find_cancellative_violation,
    find_clique_expansion,
    is_free,
)
from .hypercore import (
    CliqueSet,
    Hypergraph,
    SigmaStats,
    ZValue,
    clique_set,
    is_two_covered,
    link,
    shadow,
    shadow_i,
    sigma,
    sigma_hat,
    z_value,
)

__all__ = [
    "CliqueSet",
    "Cancellative",
    "Expansion",
    "Hypergraph",
    "PartitionSpec",
    "Perturbation",
    "SigmaStats",
    "Witness",
    "ZValue",
    "clique_expansion_graph",
    "clique_set",
    "complete",
    "expansion",
    "fano",
    "find_cancellative_violation",
    "find_clique_expansion",
    "is_free",
    "is_two_covered",
    "link",
    "perturb",
    "shadow",
    "shadow_i",
    "sigma",
    "sigma_hat",
    "turan",
    "turan_padded",
    "z_value",
]
