import warnings

import numpy as np
import pytest

from state_transport.algebra import direct_sum_algebra, full_matrix_units
from state_transport.circle import SpectralModel, circle_partition
from state_transport.errors import (
    DimensionError,
    NotFiniteError,
    ParameterError,
    PathError,
    StateTransportError,
)
from state_transport.gram import (
    GramTarget,
    VectorFamily,
    align_unitary,
    alignment_bound,
    gram_complete,
    greedy_pivot_select,
)
from state_transport.group import finite_cyclic_action, group_state_transport
from state_transport.intertwine import AlgebraTower, build_tower, make_schedule
from state_transport.suites import run_suite
from state_transport.transport import (
    commutant_transport,
    geodesic_pair,
    multi_transport,
    projection_transport,
)

_XI = np.array([1.0, 0.0], dtype=complex)


def _circle_eps_out_of_range():
    model = SpectralModel.from_unitary(np.diag(np.exp(2j * np.pi * np.array([0.1, 0.6]))))
    circle_partition(model, _XI, _XI, 3.0, 0.1)


# One call per malformed-argument check in the library: each raises the
# typed ParameterError, still a ValueError for callers that catch those.
SITES = {
    "circle_partition eps range": (_circle_eps_out_of_range, "0 < eps < 2"),
    "VectorFamily length": (lambda: VectorFamily(3, np.ones((2, 2))), "vector length"),
    "GramTarget shape": (lambda: GramTarget(2, np.eye(3)), "target shape"),
    "gram_complete size": (
        lambda: gram_complete(VectorFamily(4, 0.1 * np.eye(4)[:2]),
                              GramTarget(3, np.eye(3) / 10)),
        "family size"),
    "greedy_pivot_select count": (
        lambda: greedy_pivot_select(VectorFamily(2, np.eye(2)), 3), "more pivots"),
    "align_unitary shapes": (
        lambda: align_unitary(VectorFamily(2, 0.5 * np.eye(2)),
                              VectorFamily(3, 0.5 * np.eye(3)[:2]), 0.1),
        "share dimension"),
    "AlgebraTower multiple": (lambda: AlgebraTower(24, [4, 6]), "not a multiple"),
    "AlgebraTower branching": (lambda: AlgebraTower(8, [2, 2]), "branchings"),
    "AlgebraTower ambient": (lambda: AlgebraTower(12, [2, 8]), "does not divide"),
    "make_schedule rounds": (lambda: make_schedule(build_tower([2], 4), 0.1, 2),
                             "more rounds"),
    "make_schedule negative rounds": (lambda: make_schedule(build_tower([2], 4), 0.1, -1),
                                      "rounds must be >= 0"),
    "run_suite name": (lambda: run_suite("bogus", 0, 1), "unknown suite"),
    "projection_transport projection": (
        lambda: projection_transport(2 * np.eye(2), _XI, _XI), "not a projection"),
    "multi_transport pairs": (lambda: multi_transport(direct_sum_algebra([2]), [], [], 0.1),
                              "no pairs"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_malformed_arguments_raise_parameter_error(site):
    call, message = SITES[site]
    with pytest.raises(ParameterError, match=message) as info:
        call()
    assert isinstance(info.value, StateTransportError)
    assert isinstance(info.value, ValueError)


_STATE = np.full(4, 0.5, dtype=complex)

# Each public entry point that takes a tolerance eps, called with valid
# arguments otherwise.
TOLERANCE_SITES = {
    "make_schedule": lambda eps: make_schedule(build_tower([2], 4), eps, 1),
    "commutant_transport": lambda eps: commutant_transport(full_matrix_units(2, 2), _STATE,
                                                           _STATE, eps),
    "group_state_transport": lambda eps: group_state_transport(
        finite_cyclic_action(4, np.diag(1j ** np.arange(4))), _STATE,
        np.array([1, 0, 0, 0], dtype=complex), [1], eps),
}


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("site", sorted(TOLERANCE_SITES))
def test_bad_tolerance_raises_parameter_error(site, eps):
    # no division by eps, and no gate compared against a NaN threshold
    with pytest.raises(ParameterError, match="finite and > 0"):
        TOLERANCE_SITES[site](eps)


_ETA = np.array([0.0, 1.0], dtype=complex)
_NAN = np.array([np.nan, 1.0], dtype=complex)

# Public entry points that returned a NaN or a wrong value, or raised a bare
# numpy or Python exception, on these arguments.
BOUNDARY_SITES = {
    "geodesic_pair NaN source": (lambda: geodesic_pair(_NAN, _ETA), NotFiniteError),
    "geodesic_pair NaN target": (lambda: geodesic_pair(_XI, _NAN), NotFiniteError),
    "geodesic_pair sizes": (lambda: geodesic_pair(_XI, np.eye(3)[0]), DimensionError),
    "direct_sum_algebra zero size": (lambda: direct_sum_algebra([0]), ParameterError),
    "direct_sum_algebra zero multiplicity": (lambda: direct_sum_algebra([2], [0]),
                                             ParameterError),
    "direct_sum_algebra multiplicities": (lambda: direct_sum_algebra([2, 2], [1]),
                                          ParameterError),
    "alignment_bound negative delta": (lambda: alignment_bound(3, 2, -1e-3), ParameterError),
    "alignment_bound NaN delta": (lambda: alignment_bound(2, 3, float("nan")), ParameterError),
    "rescaled empty interval": (lambda: geodesic_pair(_XI, _ETA).rescaled(1.0, 1.0),
                                PathError),
    "rescaled reversed interval": (lambda: geodesic_pair(_XI, _ETA).rescaled(1.0, 0.0),
                                   PathError),
    "rescaled infinite interval": (lambda: geodesic_pair(_XI, _ETA).rescaled(0.0, np.inf),
                                   PathError),
}


@pytest.mark.parametrize("site", sorted(BOUNDARY_SITES))
def test_public_boundary_raises_typed_errors(site):
    call, error = BOUNDARY_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
