"""recal._special against scipy.special on both sides of the size rule:
inputs of at most ``STDLIB_MAX_POINTS`` elements take the standard-library
path, larger ones scipy's."""

import numpy as np
import pytest
import scipy.special

from recal import DomainError, _special, logistic_cspd_family, normal_cspd_family
from recal._special import STDLIB_MAX_POINTS

RNG = np.random.default_rng(20)
UNIT = np.concatenate((
    RNG.uniform(0.0, 1.0, 20_000),
    np.logspace(-300, -1, 2_000),
    1.0 - np.logspace(-16, -1, 500),
    [1e-300, 0.3, 0.5, 0.65, np.nextafter(1.0, 0.0)],
))
REAL = np.concatenate((RNG.uniform(-40.0, 10.0, 20_000), np.linspace(-38.5, 8.5, 2_000), [0.0]))
EDGES = {
    "ndtri": [0.0, -0.0, 1.0, 0.5, np.inf, -np.inf, -1.0, 2.0, np.nan, -np.nan],
    "ndtr": [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, np.nan, -np.nan],
}


def in_chunks(name, x, size):
    """The library's function on ``x`` fed in chunks of ``size`` elements."""
    f = getattr(_special, name)
    return np.concatenate([f(c) for c in np.array_split(x, -(-x.size // size))])


@pytest.fixture(params=["stdlib", "scipy"])
def chunk(request):
    return STDLIB_MAX_POINTS if request.param == "stdlib" else 4 * STDLIB_MAX_POINTS


def test_ndtri_within_8_ulps(chunk):
    ours, theirs = in_chunks("ndtri", UNIT, chunk), scipy.special.ndtri(UNIT)
    assert np.all(np.abs(ours - theirs) <= 8.0 * np.spacing(np.abs(theirs)))


def test_ndtr_within_1e_12_relative(chunk):
    ours, theirs = in_chunks("ndtr", REAL, chunk), scipy.special.ndtr(REAL)
    kept = theirs >= 1e-300
    assert kept.sum() > 20_000
    assert np.all(np.abs(ours - theirs)[kept] <= 1e-12 * theirs[kept])


def test_log_odds_within_2_ulps_of_scipys_logit():
    """The scalar log(p) - log1p(-p), in ulps of max(1, |logit p|): near
    p = 1/2 the difference cancels to an absolute error, not a relative one."""
    ours = np.array([_special.log_odds(p) for p in UNIT.tolist()])
    theirs = scipy.special.logit(UNIT)
    assert np.all(np.abs(ours - theirs) <= 2.0 * np.spacing(np.maximum(1.0, np.abs(theirs))))
    edges = [0.0, -0.0, 1.0, np.inf, -np.inf, -1.0, 2.0, np.nan]
    np.testing.assert_array_equal([_special.log_odds(p) for p in edges], scipy.special.logit(edges))


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edges_equal_scipys(name):
    """0, 1 and +-inf at the same inputs, NaN at the same inputs; on the
    standard-library path a NaN input comes back with its sign bit."""
    x = np.array(EDGES[name])
    ours, theirs = getattr(_special, name)(x), getattr(scipy.special, name)(x)
    np.testing.assert_array_equal(ours, theirs)  # NaNs compare equal here
    nan = np.isnan(x)
    assert np.signbit(ours[nan]).tolist() == np.signbit(x[nan]).tolist()
    big = np.resize(x, 4 * STDLIB_MAX_POINTS)
    np.testing.assert_array_equal(getattr(_special, name)(big), getattr(scipy.special, name)(big))


@pytest.mark.parametrize("name", sorted(EDGES))
def test_shapes_and_types_follow_scipy(name):
    ours, theirs = getattr(_special, name), getattr(scipy.special, name)
    assert type(ours(0.25)) is type(theirs(0.25)) is np.float64
    assert type(ours(np.float64(0.25))) is np.float64
    grid = np.full((3, 5), 0.25)
    assert ours(grid).shape == theirs(grid).shape == (3, 5)
    assert ours(grid.tolist()).dtype == np.float64
    assert ours(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("n", [5, 2 * STDLIB_MAX_POINTS])
@pytest.mark.parametrize("end", [0.0, 1.0])
@pytest.mark.parametrize("family", [logistic_cspd_family, normal_cspd_family])
def test_regressor_at_0_or_1_is_refused_without_warning(family, end, n):
    """On both sides of the size rule (ndtri's two paths, numpy's logit on
    either) a u of 0 or 1 gives an infinite regressor, with no RuntimeWarning
    (pytest turns one into an error), and the family refuses it."""
    u = np.linspace(0.1, 0.9, n)
    u[0 if end == 0.0 else -1] = end
    with pytest.raises(DomainError, match="transform regressor is not finite"):
        family(u)
