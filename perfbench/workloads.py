"""In-process workloads: inputs from the workload seed, one op, its output check.

Each workload is a class built from the seed.  `inputs(i)` draws op i's
inputs (untimed), `op(inputs)` is the timed call into the program, and
`check(inputs, result)` returns (ok, covered): `ok` is False when an output
violates its stated tolerance, `covered` is True when the result lies in the
workload's accuracy window (for `fit_coverage` the criterion-08 window,
elsewhere the same as `ok`).  Every call goes through a module attribute at
call time, so the tracer's wrappers see it.
"""

import math
import warnings

import numpy as np

from qcrbench import bounds, detection, inference, source

# the box the fitter searches and every workload draws (s, T_a) from
S_BOX = (0.0, 3.0)
TA_BOX = (0.5, 1.0)


def _rng(seed, *keys):
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def _rel(a, b):
    return abs(a - b) / abs(b)


class FitCoverage:
    """Criterion-08 coverage study: one `fit_source` per perturbed triple."""

    TRUTH = (2.04, 0.71)
    WINDOW = 0.02
    ETAS = {"diff": 0.919, "probe": 0.973 * 0.945, "conj": 0.919}

    def __init__(self, seed):
        self.seed = seed
        # unbounded contours warn on every affected fit; the count is traced instead
        warnings.simplefilter("ignore")

    def inputs(self, i):
        rng = _rng(self.seed, i)
        measurements = inference.synthetic_noise_measurements(
            *self.TRUTH, self.ETAS, rel_sigma=0.012, rng=rng
        )
        config = inference.DEConfig(
            population=96,
            rng_seed=int(rng.integers(2**31)),
            spread_tol=1e-5,
            max_generations=300,
        )
        return measurements, config

    def op(self, inputs):
        return inference.fit_source(*inputs)

    def check(self, inputs, fit):
        values = (fit.s, fit.T_a, fit.sigma_s, fit.sigma_T_a, fit.chi2)
        ok = (
            all(math.isfinite(v) for v in values)
            and S_BOX[0] <= fit.s <= S_BOX[1]
            and TA_BOX[0] <= fit.T_a <= TA_BOX[1]
        )
        covered = (
            ok
            and abs(fit.s - self.TRUTH[0]) <= self.WINDOW
            and abs(fit.T_a - self.TRUTH[1]) <= self.WINDOW
        )
        return ok, covered

    def sigma_cover(self, fit):
        """Whether each reported sigma covers the truth."""
        return (
            abs(fit.s - self.TRUTH[0]) <= fit.sigma_s,
            abs(fit.T_a - self.TRUTH[1]) <= fit.sigma_T_a,
        )


class ParamSweep:
    """Bound and detection chain at one seeded (s, T_a) over a 100-point T grid."""

    GRID = np.linspace(0.01, 1.0, 100)
    RAMP_EVERY = 10
    RAMP_BINS = 10_000
    BUDGET = bounds.LossBudget(T_p=0.973, eta_p=0.945, eta_c=0.919)
    FILTER = detection.FilterModel(kind="sync_tuned", rbw=51e3, poles=4)
    # criterion 03: numeric Gaussian bound equals the distributed closed form
    BOUND_RTOL = 1e-6

    def __init__(self, seed):
        self.seed = seed
        # the ramp spans its bins exactly, as `qcrbench simulate` sets it up
        self.ramp_duration = self.RAMP_BINS * detection.effective_time(self.FILTER)

    def inputs(self, i):
        rng = _rng(self.seed, i)
        params = source.SourceParams(s=rng.uniform(*S_BOX), T_a=rng.uniform(*TA_BOX))
        ramp_seeds = [int(x) for x in rng.integers(2**31, size=len(self.GRID))]
        return params, ramp_seeds

    def op(self, inputs):
        params, ramp_seeds = inputs
        budget = self.BUDGET
        chain = bounds.build_chain(params, budget)
        rows = []
        for k, t in enumerate(self.GRID):
            t = float(t)
            numeric = bounds.qcrb_numeric_gaussian(t, params, budget, 1.0, chain=chain).var_n
            closed = bounds.qcrb_distributed(t, 1.0, params, budget).var_n
            bounds.qcrb_coherent(t, 1.0, budget.eta_p)
            bounds.qcrb_ultimate(t, 1.0, budget)
            bounds.qcrb_ultimate(t, 1.0, budget, lossless=True)
            var_t = detection.transmission_variance(chain, t, 1.0)
            ramp = None
            if k % self.RAMP_EVERY == 0:
                plan = detection.MeasurementPlan(
                    filter=self.FILTER,
                    trials=self.RAMP_BINS,
                    rng_seed=ramp_seeds[k],
                    ramp_duration=self.ramp_duration,
                )
                profile = detection.linear_ramp(5.0 * math.sqrt(var_t), plan.ramp_duration)
                ramp = detection.snr_ramp_simulate(plan, profile, var_t).delta_T_at_snr1
            rows.append((numeric, closed, var_t, ramp))
        return rows

    def check(self, inputs, rows):
        ok = True
        for numeric, closed, var_t, ramp in rows:
            ok &= math.isfinite(numeric) and _rel(numeric, closed) <= self.BOUND_RTOL
            ok &= math.isfinite(var_t) and var_t > 0.0
            ok &= ramp is None or (math.isfinite(ramp) and ramp > 0.0)
        return bool(ok), bool(ok)


class NoiseMap:
    """Closed-form source noises and gain over one 256 x 256 (s, T_a) map."""

    SHAPE = (256, 256)
    ANALYTIC_POINTS = 64
    LADDER_POINTS = 2
    ANALYTIC_RTOL = 1e-12
    # the tolerances tests/test_source.py holds the slice ladder to
    LADDER_DIFF_RTOL = 1e-7
    LADDER_GAIN_RTOL = 1e-8
    # At the default rel_tol=1e-9 the ladder stops early near s = 3, T_a = 0.96,
    # where the diff noise is ~0.006 against moments ~1e2, and misses the closed
    # form by up to 1.4e-7; at 1e-10 it agrees to < 1e-8 over the whole box.
    LADDER_RTOL = 1e-10

    def __init__(self, seed):
        self.seed = seed

    def inputs(self, i):
        rng = _rng(self.seed, i)
        s = rng.uniform(*S_BOX, self.SHAPE)
        t_a = rng.uniform(*TA_BOX, self.SHAPE)
        probes = rng.choice(s.size, self.ANALYTIC_POINTS + self.LADDER_POINTS, replace=False)
        return s, t_a, probes

    def op(self, inputs):
        s, t_a, _ = inputs
        return source.continuum_noises(s, t_a), source.continuum_gain(s, t_a)

    def check(self, inputs, result):
        s, t_a, probes = inputs
        noises, gains = result
        ok = all(
            np.all(np.isfinite(a)) for a in (noises.diff, noises.probe, noises.conj, gains)
        )
        for j in probes[: self.ANALYTIC_POINTS]:
            exact = source.analytic_noises(s.flat[j], t_a.flat[j])
            ok &= _rel(noises.probe.flat[j], exact.probe) <= self.ANALYTIC_RTOL
            ok &= _rel(noises.conj.flat[j], exact.conj) <= self.ANALYTIC_RTOL
        for j in probes[self.ANALYTIC_POINTS :]:
            params = source.SourceParams(s=s.flat[j], T_a=t_a.flat[j])
            ladder = source.converged_source(params, rel_tol=self.LADDER_RTOL)
            ok &= _rel(noises.diff.flat[j], source.noise_triple(ladder.state).diff) <= (
                self.LADDER_DIFF_RTOL
            )
            ok &= _rel(gains.flat[j], ladder.gain) <= self.LADDER_GAIN_RTOL
        return bool(ok), bool(ok)


WORKLOADS = {
    "fit_coverage": FitCoverage,
    "param_sweep": ParamSweep,
    "noise_map": NoiseMap,
}
