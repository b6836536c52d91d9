import numpy as np

from oflux.commutator import SlopeFit
from oflux.reports import canonical_json
from oflux.solver import ViscousFluxReport


def test_a_nested_record_serializes_as_its_plain_dict():
    fit = SlopeFit("flux", (np.float64(0.4), 0.2), (1.0, np.float64(0.5)), np.float64(0.9), 0.99, 0.2, True)
    flux = ViscousFluxReport((0.2, 0.1), (1e-2, 5e-3), ((1.0, 0.5), (0.4, np.float64(0.2))), (0.1, 0.05),
                             np.bool_(True), "boundary flux vanishes")
    records = {"fits": [fit], "viscous_flux": flux, "alpha": np.float64(0.4)}
    plain = {
        "fits": [{"quantity": "flux", "epsilons": [0.4, 0.2], "values": [1.0, 0.5], "slope": 0.9, "r2": 0.99,
                  "predicted_slope": 0.2, "passes": True, "note": ""}],
        "viscous_flux": {"etas": [0.2, 0.1], "nus": [1e-2, 5e-3], "flux": [[1.0, 0.5], [0.4, 0.2]],
                         "extrapolated": [0.1, 0.05], "eta_trend_ok": True, "verdict": "boundary flux vanishes"},
        "alpha": 0.4,
    }
    assert canonical_json(records) == canonical_json(plain)
