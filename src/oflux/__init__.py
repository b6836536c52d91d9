"""oflux: energy-conservation diagnostics for incompressible flow fields.

The toolkit builds the computable objects behind Onsager-type energy
conservation results (mollified commutator stresses, interior weak energy
balances, pressure recovery, boundary shell fluxes, vanishing-viscosity
sweeps) and verifies their predicted scaling laws on synthetic and
simulated flows.
"""

__version__ = "0.1.0"

from .grids import (  # noqa: F401
    Grid,
    Snapshot,
    Trajectory,
    divergence,
    energy,
    make_grid,
)
