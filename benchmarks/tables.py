"""``tables``: the paper's simulation study, scenario by scenario.

A round is one ``run_scenario`` call, at threads=1, for every scenario of
presets ``table1`` and ``table3`` (ten scenarios), each with a master seed
drawn from the benchmark seed and the round. The presets' own n=100,
lambda grids, studentized k = 1, 2, 3 tests and modified runs test are
used, at ``REPS`` replications per scenario.

Checks, on the rejection counts pooled over every round of the run:
studentized cells of sine-skewed scenarios lie within ``APPROX_SLACK``
plus ``Z_CELL`` binomial standard errors of the finite-n normal
approximation; the pooled lambda=0 columns lie in a binomial band around
alpha (only its upper side for the conservative runs test); and in every
scenario the test that rejects most at the largest lambda rejects
significantly more often there than at lambda=0.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

import reference as ref
from harness import CheckFailed, Op

REPS = 150
MIN_OPS = 1
WORKERS = 0

APPROX_SLACK = 0.045  # largest gap seen between the approximation and 1000-rep cells
Z_CELL = 5.0
NULL_SLACK = 0.01  # finite-n size distortion of the studentized tests at n=100
Z_NULL = 4.0
Z_MONOTONE = 3.0


def master_seed(seed, tag):
    digest = hashlib.sha256(f"tables|{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Workload:
    def __init__(self, seed, workdir):
        from circsym import montecarlo

        self.montecarlo = montecarlo
        self.seed = seed
        self.specs = (montecarlo.preset_scenarios("table1", reps=REPS)
                      + montecarlo.preset_scenarios("table3", reps=REPS))
        self.rejections = {
            spec.scenario_id: np.zeros((len(spec.test_labels), len(spec.lambdas)), dtype=np.int64)
            for spec in self.specs
        }
        self.rounds = 0

    def _op(self, spec, tally):
        def run():
            return self.montecarlo.run_scenario(spec)

        def check(table):
            if table.test_labels != spec.test_labels or table.lambdas != spec.lambdas:
                raise CheckFailed(f"{spec.scenario_id}: table layout differs from its spec")
            counts = np.rint(np.asarray(table.frequencies) * spec.reps).astype(np.int64)
            if not np.allclose(counts / spec.reps, table.frequencies, rtol=0, atol=1e-12):
                raise CheckFailed(f"{spec.scenario_id}: frequencies are not counts / reps")
            if np.any(counts < 0) or np.any(counts > spec.reps):
                raise CheckFailed(f"{spec.scenario_id}: frequency outside [0, 1]")
            if np.any(np.asarray(table.degenerate)):
                raise CheckFailed(f"{spec.scenario_id}: degenerate samples at n={spec.n}")
            if tally:
                self.rejections[spec.scenario_id] += counts

        return Op(spec.scenario_id, run, check)

    def warm_up(self):
        return self._op(replace(self.specs[0], master_seed=master_seed(self.seed, "warm-up")),
                        tally=False)

    def round(self, r):
        self.rounds += 1
        seed = master_seed(self.seed, r)
        return [self._op(replace(spec, master_seed=seed), tally=True) for spec in self.specs]

    def finish(self):
        reps = REPS * self.rounds
        null = {}
        for spec in self.specs:
            counts = self.rejections[spec.scenario_id]
            freq = counts / reps
            j0 = spec.lambdas.index(0.0)
            jmax = int(np.argmax(np.abs(spec.lambdas)))
            for i, label in enumerate(spec.test_labels):
                null.setdefault(label.split(":")[0], []).append(counts[i, j0])
            if spec.family == "sineskew":
                base = ref.parse_base(spec.base)
                for i, k in enumerate(spec.test_ks):
                    for j, lam in enumerate(spec.lambdas):
                        expected = ref.studentized_power(base, k, spec.skew_k, lam, spec.n, spec.alpha)
                        tol = APPROX_SLACK + Z_CELL * ref.binomial_se(expected, reps)
                        if abs(freq[i, j] - expected) > tol:
                            raise CheckFailed(
                                f"{spec.scenario_id} k={k} lambda={lam:g}: {freq[i, j]:.4f} vs "
                                f"normal approximation {expected:.4f} (tolerance {tol:.4f}, {reps} reps)")
            best = int(np.argmax(freq[:, jmax]))
            hi, lo = freq[best, jmax], freq[best, j0]
            spread = math.sqrt((hi * (1 - hi) + lo * (1 - lo)) / reps)
            if not hi - lo > Z_MONOTONE * spread:
                raise CheckFailed(f"{spec.scenario_id}: largest lambda rejects {hi:.4f}, "
                                  f"lambda=0 rejects {lo:.4f} ({reps} reps)")
        alpha = self.specs[0].alpha
        for kind, counts in null.items():
            total = reps * len(counts)
            freq = sum(counts) / total
            band = Z_NULL * ref.binomial_se(alpha, total)
            low = -math.inf if kind == "modrun" else alpha - NULL_SLACK - band
            if not low <= freq <= alpha + NULL_SLACK + band:
                raise CheckFailed(f"pooled lambda=0 size of {kind} tests is {freq:.4f} "
                                  f"over {total} samples, alpha {alpha}")
