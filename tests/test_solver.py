import csv
import hashlib
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualct import objective, regularizer, solver
from dualct.errors import ConfigError, SolverError
from dualct.objective import (DualState, ProblemSpec, evaluate,
                              lipschitz_constants)
from dualct.regularizer import make_random_weights, make_tv_weights
from dualct.simdata import PhantomSpec, make_phantom
from dualct.solver import (BRANCH_BCD, BRANCH_EDC, CSV_COLUMNS, IterateLog,
                           IterateRecord, SolverParams, backtrack_bound,
                           bcd_safeguard, candidate_step, edc_check,
                           resolve_steps, run, smoothing_update)
from dualct.tomo import (GridSpec, Image, Sinogram, forward_project,
                         parallel_geometry, subsample_views, system_matrix, uniform_mask)


def _problem(rng, n=12, n_views=18, n_dets=13, n_keep=6, tv_scale=0.02, lam=10.0):
    grid = GridSpec(n, n, 2.0 / n)
    geo = parallel_geometry(n_views, n_dets, grid)
    mask = uniform_mask(n_views, n_keep)
    truth = Image(grid, rng.random(grid.shape))
    s = subsample_views(forward_project(truth, geo), mask)
    weights = make_tv_weights(scale=tv_scale) if tv_scale else None
    spec = ProblemSpec(geo, mask, s, lam=lam,
                       image_weights=weights, sino_weights=weights)
    init = DualState(Image(grid, np.zeros(grid.shape)),
                     Sinogram(geo, np.arange(n_views), np.zeros((n_views, n_dets))))
    return spec, init, truth


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("rho", 1.0), ("rho", 0.0), ("delta", 0.0), ("eta", 0.0),
        ("gamma", 1.5), ("sigma", -1.0), ("eps0", 0.0), ("eps_tol", -1.0),
        ("alpha", -0.1), ("max_backtracks", 0), ("eps_tol", float("nan")),
        ("eps0", "abc"), ("alpha", [0.1]), ("max_iters", 5.5),
        ("max_iters", True), ("max_backtracks", "60"),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SolverParams(**{field: value})

    def test_defaults_valid(self):
        SolverParams()

    def test_float_fields_converted(self):
        params = SolverParams(eps_tol="1e-3", bar_alpha0=2, alpha=np.float64(0.5))
        assert params.eps_tol == 1e-3 and type(params.eps_tol) is float
        assert params.bar_alpha0 == 2.0 and type(params.bar_alpha0) is float
        assert type(params.alpha) is float
        assert params.beta is None

    def test_frozen(self):
        # a knob changed after construction would bypass the checks
        with pytest.raises(FrozenInstanceError):
            SolverParams().rho = 2.0


class TestSteps:
    def test_collapsed_regularizer_steps_smaller(self, rng):
        spec, _, _ = _problem(rng)
        steps = resolve_steps(lipschitz_constants(spec), SolverParams(), eps=0.1)
        assert 0 < steps.alpha_hat < steps.alpha
        assert 0 < steps.beta_hat < steps.beta

    def test_explicit_steps_respected(self, rng):
        spec, _, _ = _problem(rng)
        params = SolverParams(alpha=0.3, beta=0.2, alpha_hat=0.1, beta_hat=0.05)
        steps = resolve_steps(lipschitz_constants(spec), params, eps=0.1)
        assert (steps.alpha, steps.beta, steps.alpha_hat, steps.beta_hat) \
            == (0.3, 0.2, 0.1, 0.05)


class TestStepMechanics:
    def test_candidate_decreases_smoothed_objective(self, rng):
        spec, init, _ = _problem(rng)
        eps = 0.1
        steps = resolve_steps(lipschitz_constants(spec), SolverParams(), eps)
        cand = candidate_step(evaluate(init, spec), steps, eps)
        assert evaluate(cand.state(), spec).phi(eps) < evaluate(init, spec).phi(eps)

    def test_edc_rejects_non_descending_candidate(self, rng):
        spec, init, _ = _problem(rng)
        eps = 0.1
        bad = DualState(Image(spec.geometry.grid, init.x.values + 100.0),
                        init.z.copy())
        assert not edc_check(evaluate(init, spec), evaluate(bad, spec),
                             SolverParams(), eps)

    def test_edc_accepts_lipschitz_candidate(self, rng):
        spec, init, _ = _problem(rng)
        eps = 0.1
        steps = resolve_steps(lipschitz_constants(spec), SolverParams(), eps)
        point = evaluate(init, spec)
        cand = candidate_step(point, steps, eps)
        assert edc_check(point, cand, SolverParams(), eps)

    def test_bcd_safeguard_descends(self, rng):
        spec, init, _ = _problem(rng)
        eps = 0.1
        params = SolverParams()
        cand, bt, bar_a, bar_b = bcd_safeguard(evaluate(init, spec), params, eps)
        assert evaluate(cand.state(), spec).phi(eps) < evaluate(init, spec).phi(eps)
        assert bar_a == params.bar_alpha0 * params.rho**bt
        assert bar_b == params.bar_beta0 * params.rho**bt

    def test_smoothing_update_strict(self):
        params = SolverParams(sigma=100.0, gamma=0.5)
        eps = 0.1
        thresh = params.sigma * params.gamma * eps
        assert smoothing_update(eps, thresh, params) == eps          # not strict below
        assert smoothing_update(eps, thresh - 1e-12, params) == eps * params.gamma

    def test_backtrack_guard_refuses_short_budget(self):
        # one shrink from 1e6 cannot reach the step the Lipschitz bound needs
        spec, init, _ = _pinned_problem("tv")
        params = SolverParams(max_backtracks=1, bar_alpha0=1e6, bar_beta0=1e6)
        with pytest.raises(ConfigError, match="max_backtracks too small"):
            run(spec, init, params)

    def test_backtrack_guard_checks_the_last_scheduled_eps(self):
        # the default schedule halves eps from 0.1 and iterates at
        # 0.1 * 0.5**10 = 9.765625e-05 before it stops, below eps_tol = 1e-4
        lip = objective.LipschitzConstants(0.0, 0.0, 0.0, lambda eps: 207 / eps,
                                           lambda eps: 0.0)
        params = SolverParams(max_backtracks=20)
        assert backtrack_bound(params, lip.composite(1e-4)) == 21
        assert backtrack_bound(params, lip.composite(9.765625e-05)) == 22
        solver._check_backtrack_budget(lip, replace(params, eps0=1e-4))
        with pytest.raises(ConfigError, match=r"eps \(9.76563e-05\)"):
            solver._check_backtrack_budget(lip, params)
        # ten iterations reach eps 0.1 * 0.5**9 at the least
        solver._check_backtrack_budget(lip, replace(params, max_iters=10))

    def test_backtrack_bound_monotone(self):
        params = SolverParams()
        bounds = [backtrack_bound(params, l) for l in (1.0, 10.0, 100.0, 1e4)]
        assert bounds == sorted(bounds)
        assert all(b >= 1 for b in bounds)


class TestRun:
    def test_monotone_descent_at_fixed_eps(self, rng):
        spec, init, _ = _problem(rng)
        params = SolverParams(max_iters=60)
        _, log = run(spec, init, params)
        for rec in log.records:
            assert rec.phi_after <= rec.phi_before + 1e-12

    def test_eps_schedule_geometric(self, rng):
        spec, init, _ = _problem(rng)
        params = SolverParams(max_iters=200)
        _, log = run(spec, init, params)
        eps_seen = [rec.eps for rec in log.records]
        assert all(b <= a for a, b in zip(eps_seen, eps_seen[1:]))
        levels = sorted(set(eps_seen), reverse=True)
        for a, b in zip(levels, levels[1:]):
            assert b == pytest.approx(params.gamma * a, rel=1e-12)
        assert log.n_eps_reductions() >= 2

    def test_branches_labelled(self, rng):
        spec, init, _ = _problem(rng)
        _, log = run(spec, init, SolverParams(max_iters=40))
        assert all(rec.branch in (BRANCH_EDC, BRANCH_BCD) for rec in log.records)
        assert any(rec.branch == BRANCH_EDC for rec in log.records)

    def test_phase_mode_iteration_count(self, rng):
        spec, init, _ = _problem(rng)
        params = SolverParams(max_iters=7, eps_tol=0.0)
        _, log = run(spec, init, params)
        assert len(log) == 7

    def test_zero_iterations_identity(self, rng):
        spec, init, _ = _problem(rng)
        final, log = run(spec, init, SolverParams(max_iters=0))
        assert len(log) == 0
        np.testing.assert_array_equal(final.x.values, init.x.values)
        np.testing.assert_array_equal(final.z.values, init.z.values)

    def test_deterministic(self, rng):
        spec, init, _ = _problem(rng)
        f1, l1 = run(spec, init, SolverParams(max_iters=30))
        f2, l2 = run(spec, init, SolverParams(max_iters=30))
        np.testing.assert_array_equal(f1.x.values, f2.x.values)
        np.testing.assert_array_equal(f1.z.values, f2.z.values)
        assert [r.phi_after for r in l1.records] == [r.phi_after for r in l2.records]

    def test_non_finite_safeguard_trial_raises_solver_error(self, rng):
        # eta this large rejects every candidate, and the first safeguard
        # trial step overflows
        spec, init, _ = _problem(rng)
        params = SolverParams(eta=1e10, bar_alpha0=1e300, bar_beta0=1e300,
                              max_backtracks=2000, max_iters=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolverError, match="non-finite") as info:
            run(spec, init, params)
        assert info.value.log is not None and len(info.value.log) == 0

    def test_safeguard_exhaustion_raises_solver_error(self, rng, monkeypatch):
        spec, init, _ = _problem(rng)
        params = SolverParams(eta=1e10, bar_alpha0=1e6, bar_beta0=1e6,
                              max_backtracks=5, max_iters=5)
        # the configure-time budget check would refuse this budget
        monkeypatch.setattr(solver, "_check_backtrack_budget", lambda lip, p: None)
        with pytest.raises(SolverError, match="backtracks") as info:
            run(spec, init, params)
        assert info.value.log is not None

    def test_least_squares_reaches_optimum(self, rng):
        # no regularizers: the objective is an unconstrained linear
        # least-squares problem whose solution we can form directly
        grid = GridSpec(8, 8, 1.0)
        geo = parallel_geometry(24, 15, grid)
        mask = uniform_mask(24, 12)
        truth = Image(grid, rng.random(grid.shape))
        s = subsample_views(forward_project(truth, geo), mask)
        spec = ProblemSpec(geo, mask, s, lam=10.0)
        init = DualState(Image(grid, np.zeros(grid.shape)),
                         Sinogram(geo, np.arange(24), np.zeros((24, 15))))
        params = SolverParams(eps_tol=0.0, max_iters=3000)
        final, _ = run(spec, init, params)
        a = system_matrix(spec.geometry).toarray()
        nd = spec.geometry.n_dets
        n_z = a.shape[0]
        diag = np.zeros(n_z)
        for v in spec.mask.indices():
            diag[v * nd:(v + 1) * nd] = 1.0
        hess = np.block([
            [a.T @ a, -a.T],
            [-a, np.eye(n_z) + spec.lam * np.diag(diag)],
        ])
        rhs = np.concatenate([
            np.zeros(a.shape[1]),
            spec.lam * diag * _scatter(spec),
        ])
        opt = np.linalg.lstsq(hess, rhs, rcond=None)[0]
        got = np.concatenate([final.x.values.ravel(), final.z.values.ravel()])
        rel = np.linalg.norm(got - opt) / np.linalg.norm(opt)
        assert rel < 1e-6


class TestExtrapolation:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(6, 12),
           tv_scale=st.floats(1e-3, 0.1), lam=st.floats(0.5, 20.0))
    def test_descent_against_the_current_iterate(self, seed, n, tv_scale, lam):
        spec, init, _ = _problem(np.random.default_rng(seed), n=n,
                                 tv_scale=tv_scale, lam=lam)
        params = SolverParams(max_iters=80)
        checked = []

        def recording(point, cand, params, eps):
            checked.append((point, cand))
            return edc_check(point, cand, params, eps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "edc_check", recording)
            _, log = run(spec, init, params)
        assert len(checked) == len(log)
        np.testing.assert_array_equal(checked[0][0].x, init.x.values)
        for k, (rec, (point, cand)) in enumerate(zip(log.records, checked)):
            assert rec.phi_after <= rec.phi_before
            if rec.branch != BRANCH_EDC:
                continue
            # the candidate passes the EDC against p_k, both evaluated afresh,
            # and becomes p_{k+1}
            assert edc_check(evaluate(point.state(), spec), evaluate(cand.state(), spec),
                             params, rec.eps), k
            if k + 1 < len(checked):
                assert checked[k + 1][0] is cand

    @pytest.mark.parametrize("eps_tol", [1e-4, 0.0])
    def test_extrapolates_in_converge_mode_only(self, monkeypatch, eps_tol):
        starts, currents = [], []
        step, check = solver.candidate_step, solver.edc_check

        def recording_step(point, *args):
            starts.append(point)
            return step(point, *args)

        def recording_check(point, *args):
            currents.append(point)
            return check(point, *args)

        monkeypatch.setattr(solver, "candidate_step", recording_step)
        monkeypatch.setattr(solver, "edc_check", recording_check)
        spec, init, params = _pinned_problem("tv")
        run(spec, init, replace(params, eps_tol=eps_tol, max_iters=60))
        same = [s is c for s, c in zip(starts, currents)]
        assert len(same) == 60
        assert all(same) if eps_tol == 0 else not all(same)

    def test_combined_ax_does_not_drift(self, monkeypatch):
        # the phase-mode TV run takes the safeguard in 265 of 400 iterations,
        # each trial's Ax a combination of its start point's
        trials = []
        safeguard = solver.bcd_safeguard

        def recording(*args):
            out = safeguard(*args)
            trials.append(out[0])
            return out

        monkeypatch.setattr(solver, "bcd_safeguard", recording)
        spec, init, params = _pinned_problem("tv")
        run(spec, init, replace(params, eps_tol=0.0))
        assert len(trials) > 200
        for trial in trials:
            exact = spec.project(trial.x)
            assert np.linalg.norm(trial.ax - exact) <= 1e-10 * np.linalg.norm(exact)


class _CountingMatrix:
    """Sparse-matrix proxy that counts its products under ``key``, and
    those through its transpose under ``"AT"``."""

    def __init__(self, mat, counts, key):
        self._mat, self._counts, self._key = mat, counts, key

    def __matmul__(self, other):
        self._counts[self._key] += 1
        return self._mat @ other

    @property
    def T(self):
        return _CountingMatrix(self._mat.T, self._counts, "AT")

    def __getattr__(self, attr):
        return getattr(self._mat, attr)


class TestOperatorCounts:
    def test_projector_applications_per_iteration(self, monkeypatch):
        counts = {"A": 0, "AT": 0}
        monkeypatch.setattr(objective, "system_matrix",
                            lambda geo: _CountingMatrix(system_matrix(geo), counts, "A"))
        marks = []
        step = solver.candidate_step

        def marked_step(*args):
            marks.append((counts["A"], counts["AT"]))
            return step(*args)

        monkeypatch.setattr(solver, "candidate_step", marked_step)
        spec, init, params = _pinned_problem("tv")
        for eps_tol in (1e-4, 0.0):  # extrapolated and plain candidates
            marks.clear()
            _, log = run(spec, init, replace(params, eps_tol=eps_tol))
            marks.append((counts["A"], counts["AT"]))
            per_iter = [(a1 - a0, t1 - t0) for (a0, t0), (a1, t1) in zip(marks, marks[1:])]
            assert len(per_iter) == len(log)
            branches = {rec.branch for rec in log.records}
            assert branches == {BRANCH_EDC, BRANCH_BCD}
            assert len({rec.backtracks for rec in log.records
                        if rec.branch == BRANCH_BCD}) >= 4
            for rec, got in zip(log.records, per_iter):
                if rec.branch == BRANCH_EDC:
                    assert got == (1, 2), (eps_tol, rec.k)
                else:
                    # candidate (1 A, 1 A^T); the safeguard's A^T gz, A gx and
                    # A A^T gz, shared by every trial; A^T for the gradient at
                    # the accepted point
                    assert got == (3, 3), (eps_tol, rec.k)

    def test_jacobian_power_iteration_once_per_domain(self, monkeypatch):
        calls = {"estimate": 0, "jvp": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(regularizer, "lipschitz_estimate",
                            counted("estimate", regularizer.lipschitz_estimate))
        monkeypatch.setattr(regularizer, "feature_jvp",
                            counted("jvp", regularizer.feature_jvp))
        spec, init, params = _pinned_problem("random")
        _, log = run(spec, init, params)
        assert log.n_eps_reductions() >= 2
        assert calls == {"estimate": 2, "jvp": 2 * 12}


def _scatter(spec):
    """P0^T s as a flat full-view vector."""
    full = np.zeros((spec.geometry.n_views_full, spec.geometry.n_dets))
    full[spec.mask.indices()] = spec.measured.values
    return full.ravel()


class TestLog:
    def _sample_log(self):
        log = IterateLog()
        log.append(IterateRecord(0, 0.1, 5.0, 4.0, 2.5, BRANCH_EDC, 0, 0.1, 0.2, False))
        log.append(IterateRecord(1, 0.1, 4.0, 3.5, 1.5, BRANCH_BCD, 3, 0.05, 0.1, True))
        return log

    def test_csv_roundtrip(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "it.csv"
        log.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3
        assert rows[1][5] == BRANCH_EDC
        assert float(rows[2][1]) == 0.1
        assert rows[2][9] == "1"

    def test_json_structure(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "it.json"
        log.write_json(path)
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["columns"] == list(CSV_COLUMNS)
        assert obj["iterations"][1]["backtracks"] == 3
        assert obj["iterations"][1]["eps_reduced"] is True

    def test_summaries(self):
        log = self._sample_log()
        assert log.max_backtracks() == 3
        assert log.n_eps_reductions() == 1
        assert len(log) == 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_problem(kind):
    grid = GridSpec(16, 16, 2.0 / 16)
    geo = parallel_geometry(30, 25, grid)
    mask = uniform_mask(30, 10)
    truth = make_phantom(PhantomSpec("shepp-logan-modified", grid))
    s = subsample_views(forward_project(truth, geo), mask)
    if kind == "tv":
        image_w = sino_w = make_tv_weights(scale=0.02)
        params = SolverParams(max_iters=400)
    else:
        image_w = make_random_weights(1, n_layers=2, n_channels=4, kernel=(3, 3))
        sino_w = make_random_weights(2, n_layers=2, n_channels=4, kernel=(3, 5))
        params = SolverParams(max_iters=30)
    spec = ProblemSpec(geo, mask, s, lam=10.0,
                       image_weights=image_w, sino_weights=sino_w)
    init = DualState(Image(grid, np.zeros(grid.shape)),
                     Sinogram(geo, np.arange(30), np.zeros((30, 25))))
    return spec, init, params


class TestPinnedOutputs:
    """Byte-level pins of two small solves.

    A change that only reorganizes the solver or the objective must keep
    these hashes; a change that alters the arithmetic updates them and says
    so. Both run in converge mode, so their candidates are extrapolated. The
    TV run takes both branches and reaches eps_tol (184 iterations, 125 BCD,
    11 eps reductions); the random-stack run re-derives its regularizer
    steps after 5 eps reductions. The conv layers sum over channels and
    kernel taps inside BLAS, so the hashes also pin the BLAS build; they
    were recorded with OpenBLAS 0.3.31, which gives them at 1 and 2 threads.
    """

    PINS = {
        "tv": ("9ac551325e98a4739693aaa485cc1aea484bdc72f967df1a145334e954ec051b",
               "8159d289743340da2f37972998cd26051384b9d7b0d434db0352987bc7b89d4a",
               "b4d10f7d1ba93fe29c88bbeb9f67d6097b6e564fea1f7e71a8869d2ad462c7cd"),
        "random": ("8add841dab748187a11ec755959ec3897a69b88d5a2d6c3ea67eb86796e54ede",
                   "e4477386e70c02a26925b68b1358ffdace5224cf301d7768795b21f9608c69a5",
                   "5097fb71c5ec590932c540df367308bc646a555e2b4cf697bd86b15c03fa4e0a"),
    }

    @pytest.mark.parametrize("kind", sorted(PINS))
    def test_outputs_byte_identical(self, kind, tmp_path):
        spec, init, params = _pinned_problem(kind)
        final, log = run(spec, init, params)
        log.write_json(tmp_path / "iterations.json")
        got = (_sha256(np.ascontiguousarray(final.x.values, dtype="<f8").tobytes()),
               _sha256(np.ascontiguousarray(final.z.values, dtype="<f8").tobytes()),
               _sha256((tmp_path / "iterations.json").read_bytes()))
        assert got == self.PINS[kind]
