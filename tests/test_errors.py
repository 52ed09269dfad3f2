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
from dualct.tomo import (PARALLEL, GridSpec, Image, ScanGeometry, Sinogram, ViewMask,
                         fan_geometry, parallel_geometry, uniform_mask)


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


@pytest.mark.parametrize("name", ["image_weights", "sino_weights"])
@pytest.mark.parametrize("weights", ["tv", np.zeros((1, 1, 3, 3)), (LAYER,)])
def test_problem_spec_refuses_weights_that_are_not_a_conv_stack(name, weights):
    # run would otherwise fail later with an AttributeError on .layers
    with pytest.raises(ConfigError, match=f"{name} must be a ConvStack or None"):
        ProblemSpec(GEO, MASK, MEASURED, **{name: weights})


# a layer whose second output channel has fewer kernel rows than its first
RAGGED = [[[[0.0] * 3] * 3], [[[0.0] * 3] * 2]]


@pytest.mark.parametrize("build, message", [
    (lambda: ConvStack((np.ones((1, 1, 3, 3), dtype=complex),)), "layer 0: .* real numbers"),
    (lambda: ConvStack((np.ones((1, 1, 3, 3), dtype=bool),)), "layer 0: .* real numbers"),
    (lambda: ConvStack((RAGGED,)), "layer 0: .* an array"),
    (lambda: ConvStack("abc"), "layer 0: .* real numbers"),
    (lambda: ScanGeometry(PARALLEL, (0.0,), 3, 1.0, None), "grid must be a GridSpec"),
    (lambda: PhantomSpec("disk", "grid"), "grid must be a GridSpec"),
    (lambda: Image("g", np.zeros(4)), "grid must be a GridSpec"),
    (lambda: Sinogram("geo", [0], np.zeros(3)), "geometry must be a ScanGeometry"),
], ids=["complex-layer", "bool-layer", "ragged-layer", "string-layers", "ScanGeometry.grid",
        "PhantomSpec.grid", "Image.grid", "Sinogram.geometry"])
def test_constructor_refuses_values_of_the_wrong_type(build, message):
    # each would otherwise be accepted or end in a bare AttributeError later
    with pytest.raises(ConfigError, match=message):
        build()


def test_conv_stack_stores_layers_as_float64():
    nested = [[[[0, 1.5, 0]]], [[[2, 0, 0]]]]  # a (2, 1, 1, 3) layer of ints and floats
    (layer,) = ConvStack((nested,)).layers
    assert layer.dtype == np.float64
    np.testing.assert_array_equal(layer, np.array(nested, dtype=float))
    # a float64 layer is kept as it is, not copied
    assert ConvStack((LAYER,)).layers[0] is LAYER
