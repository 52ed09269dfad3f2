import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualct.errors import ConfigError
from dualct.objective import ProblemSpec
from dualct.regularizer import ConvStack, make_random_weights, make_tv_weights
from dualct.simdata import NoiseSpec, PhantomSpec
from dualct.solver import SolverParams
from dualct.tomo import (GridSpec, Sinogram, ViewMask, fan_geometry, parallel_geometry,
                         uniform_mask)


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# What a count, a real or a seed must refuse. A real given as None is left
# out where None is the field's documented "not given" (the optional steps
# of SolverParams).
COUNT = st.one_of(st.booleans(), st.floats().filter(lambda v: not float(v).is_integer()),
                  st.text(), st.none())
REAL_GIVEN = st.one_of(st.booleans(), st.text().filter(_not_a_number),
                       st.sampled_from([math.nan, math.inf, -math.inf]))
REAL = st.one_of(REAL_GIVEN, st.none())
SEED = st.one_of(COUNT, st.just(-1))

GRID = GridSpec(8, 8, 0.25)
GEO = parallel_geometry(6, 5, GRID)
MASK = uniform_mask(6, 3)
MEASURED = Sinogram(GEO, MASK.indices(), np.zeros((3, 5)))
LAYER = np.zeros((1, 1, 3, 3))


def _ellipse(i, value):
    ellipse = [1.0, 0.5, 0.5, 0.0, 0.0, 0.0]
    ellipse[i] = value
    return PhantomSpec("custom-ellipses", GRID, (tuple(ellipse),))


# each public constructor field that takes a count, a real or a seed:
# (values it must refuse, a call that passes the value to that field)
FIELDS = {
    "parallel_geometry.n_views": (COUNT, lambda v: parallel_geometry(v, 5, GRID)),
    "parallel_geometry.n_dets": (COUNT, lambda v: parallel_geometry(6, v, GRID)),
    "fan_geometry.n_views": (COUNT, lambda v: fan_geometry(v, 5, GRID)),
    "fan_geometry.n_dets": (COUNT, lambda v: fan_geometry(6, v, GRID)),
    "fan_geometry.source_radius": (
        REAL_GIVEN, lambda v: fan_geometry(6, 5, GRID, source_radius=v)),
    "ViewMask.n_views_full": (COUNT, lambda v: ViewMask(v, (0, 2))),
    "ViewMask.selected": (COUNT, lambda v: ViewMask(6, (0, v))),
    "uniform_mask.n_views_full": (COUNT, lambda v: uniform_mask(v, 3)),
    "uniform_mask.n_keep": (COUNT, lambda v: uniform_mask(6, v)),
    "NoiseSpec.sigma": (REAL, lambda v: NoiseSpec("gaussian", sigma=v)),
    "NoiseSpec.photons": (REAL, lambda v: NoiseSpec("poisson-transmission", photons=v)),
    "NoiseSpec.seed": (SEED, lambda v: NoiseSpec("gaussian", sigma=0.1, seed=v)),
    **{f"PhantomSpec.ellipses[{i}]": (REAL, lambda v, i=i: _ellipse(i, v)) for i in range(6)},
    "ProblemSpec.lam": (REAL, lambda v: ProblemSpec(GEO, MASK, MEASURED, lam=v)),
    "ConvStack.activation_delta": (REAL, lambda v: ConvStack((LAYER,), v)),
    "make_random_weights.seed": (SEED, lambda v: make_random_weights(seed=v)),
    "make_random_weights.n_layers": (COUNT, lambda v: make_random_weights(n_layers=v)),
    "make_random_weights.n_channels": (COUNT, lambda v: make_random_weights(n_channels=v)),
    "make_random_weights.kernel": (COUNT, lambda v: make_random_weights(kernel=(3, v))),
    "make_random_weights.scale": (REAL, lambda v: make_random_weights(scale=v)),
    "make_random_weights.activation_delta": (
        REAL, lambda v: make_random_weights(activation_delta=v)),
    "make_tv_weights.scale": (REAL, lambda v: make_tv_weights(scale=v)),
    **{f"SolverParams.{name}": (REAL_GIVEN, lambda v, name=name: SolverParams(**{name: v}))
       for name in ("alpha", "beta", "alpha_hat", "beta_hat")},
    **{f"SolverParams.{name}": (REAL, lambda v, name=name: SolverParams(**{name: v}))
       for name in ("bar_alpha0", "bar_beta0", "rho", "delta", "eta", "eps0", "gamma",
                    "sigma", "eps_tol")},
    **{f"SolverParams.{name}": (COUNT, lambda v, name=name: SolverParams(**{name: v}))
       for name in ("max_iters", "max_backtracks")},
}


class TestConstructorReaders:
    def test_every_solver_knob_listed(self):
        assert {name.split(".")[1] for name in FIELDS if name.startswith("SolverParams.")} \
            == set(SolverParams.__dataclass_fields__)

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bad_value_raises_config_error(self, field, data):
        values, build = FIELDS[field]
        with pytest.raises(ConfigError):
            build(data.draw(values))
