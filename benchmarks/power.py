"""``power``: empirical local power curves through the process pool.

A round is three ``power_curve(vm:1, k=2, k', GRID, mode="empirical",
n=500, reps=REPS, threads=2)`` calls, one for each k' in 1, 2, 3, with a
master seed drawn from the benchmark seed and the round. Each grid point
starts its own pool of two spawned workers.

Check, on the hits pooled over every round of the run: each point lies
within ``SLACK`` plus ``Z_POINT`` binomial standard errors of the
closed-form local power 1 - Phi(z - s) + Phi(-z - s). At lambda =
tau2 / sqrt(n) the finite-n normal approximation used by ``tables`` gives
the same number, and both are checked.
"""

import hashlib
import math

import numpy as np

import reference as ref
from harness import CheckFailed, Op

BASE = "vm:1"
K = 2
K_PRIMES = (1, 2, 3)
GRID = (0.0, 1.0, 2.0, 3.0, 4.0)
N = 500
REPS = 800
THREADS = 2
MIN_OPS = 1
WORKERS = THREADS

SLACK = 0.03  # local-power error at n=500 (criterion 6 sees 0.010 at 10000 reps)
Z_POINT = 5.0


def master_seed(seed, tag):
    digest = hashlib.sha256(f"power|{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Workload:
    def __init__(self, seed, workdir):
        from circsym import montecarlo
        from circsym.distributions import parse_base

        self.montecarlo = montecarlo
        self.base = parse_base(BASE)
        self.seed = seed
        self.hits = {kp: np.zeros(len(GRID), dtype=np.int64) for kp in K_PRIMES}
        self.rounds = 0

    def _op(self, k_prime, seed, tally):
        def run():
            return self.montecarlo.power_curve(
                self.base, K, k_prime, GRID, mode="empirical", n=N, reps=REPS,
                master_seed=seed, threads=THREADS,
            )

        def check(points):
            taus = [t for t, _ in points]
            if taus != list(GRID):
                raise CheckFailed(f"k'={k_prime}: grid {taus} returned for {list(GRID)}")
            power = np.array([p for _, p in points])
            hits = np.rint(power * REPS).astype(np.int64)
            if not np.allclose(hits / REPS, power, rtol=0, atol=1e-12) or np.any(hits > REPS):
                raise CheckFailed(f"k'={k_prime}: powers {power} are not hits / {REPS}")
            if tally:
                self.hits[k_prime] += hits

        return Op(f"power_curve k'={k_prime}", run, check)

    def warm_up(self):
        return self._op(K_PRIMES[0], master_seed(self.seed, "warm-up"), tally=False)

    def round(self, r):
        self.rounds += 1
        seed = master_seed(self.seed, r)
        return [self._op(kp, seed, tally=True) for kp in K_PRIMES]

    def finish(self):
        reps = REPS * self.rounds
        base = ref.parse_base(BASE)
        for kp in K_PRIMES:
            for j, tau2 in enumerate(GRID):
                freq = self.hits[kp][j] / reps
                for name, expected in (
                    ("local power", ref.local_power(base, K, kp, tau2)),
                    ("finite-n approximation",
                     ref.studentized_power(base, K, kp, tau2 / math.sqrt(N), N)),
                ):
                    tol = SLACK + Z_POINT * ref.binomial_se(expected, reps)
                    if abs(freq - expected) > tol:
                        raise CheckFailed(f"k'={kp} tau2={tau2:g}: empirical {freq:.4f} vs "
                                          f"{name} {expected:.4f} (tolerance {tol:.4f}, {reps} reps)")
