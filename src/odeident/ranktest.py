"""Parameter-identifiability rank test for the bundled HIV model.

The pipeline: build the second-order input-output relation linking the two
outputs, differentiate it four times along trajectories (treating output
derivatives as formal symbols), take the Jacobian of the resulting
5-vector with respect to (lambda, delta, rho, c, N), optionally impose the
dynamics by substituting the order-6 output jets, and measure the generic
rank of the 5x5 matrix by exact evaluation at random points of large prime
fields. Differentiation happens before the dynamics substitution; the two
orders are not interchangeable and the first is the one this test means.

The "corrected" relation vanishes identically along trajectories. The
"miao" variant differs in exactly two terms and does not vanish, which is
what separates a naive generic rank of 5 from the dynamics-constrained
rank of at most 4.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import expr
from .expr import (
    CONST_PARAM, OUTPUT_DERIV,
    DivisionByZero, Expression, RationalCanonical, Symbol,
    compile_program, free_symbols, normalize, substitute_many, sym,
)
from .model import (
    OUTPUT_SYMBOLS, OdeModel, hiv_model, output_jet, output_symbol,
    total_time_derivative,
)

__all__ = [
    "CORRECTED", "MIAO_AS_PRINTED", "DEFAULT_PRIMES", "PARAM_ORDER",
    "ExhaustedRetries", "PrimeDisagreement", "PhiRelation", "PhiSystem",
    "RankReport", "build_phi", "build_phi_system", "generic_rank",
    "is_prime", "parameter_jacobian", "phi_vanishes_on_dynamics",
    "run_rank_test", "substitute_dynamics",
]

CORRECTED = "corrected"
MIAO_AS_PRINTED = "miao"
_VARIANTS = (CORRECTED, MIAO_AS_PRINTED)

# column order of the parameter Jacobian, fixed
PARAM_ORDER = ("lambda", "delta", "rho", "c", "N")

# primes just above 2^62; Schwartz-Zippel makes a false rank-5 verdict
# impossible and a false low-rank verdict vanishingly unlikely at this size
DEFAULT_PRIMES = (
    4611686018427388039,
    4611686018427388073,
    4611686018427388081,
)

_MAX_RETRIES_PER_TRIAL = 64


class PrimeDisagreement(expr.ExprError):
    """Max-aggregated ranks differ between primes; prime too small or a bug."""


class ExhaustedRetries(expr.ExprError):
    """Too many random points hit a denominator; the matrix is suspicious."""


# ---------------------------------------------------------------- relation

@dataclass(frozen=True)
class PhiRelation:
    """Input-output relation over y1, y2, their first two derivatives, and
    the five constant parameters."""

    variant: str
    expression: Expression


@dataclass(frozen=True)
class PhiSystem:
    """The relation and its first four total time derivatives in output
    symbols; entry k uses output derivatives up to order k+2."""

    variant: str
    entries: tuple[Expression, ...]


def _hiv_symbols(m: OdeModel):
    params = {s.name: sym(s) for s in m.const_params}
    y = {(i, k): sym(output_symbol(m, i, k)) for i in (1, 2) for k in range(3)}
    return params, y


def build_phi(variant: str = CORRECTED, m: OdeModel | None = None) -> PhiRelation:
    """Build the input-output relation; `variant` selects the corrected form
    or the earlier printed form it amends (two terms differ)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    m = m or hiv_model()
    par, y = _hiv_symbols(m)
    lam, delta, rho, c, N = (par[n] for n in PARAM_ORDER)
    y1, dy1, ddy1 = y[(1, 0)], y[(1, 1)], y[(1, 2)]
    y2, dy2, ddy2 = y[(2, 0)], y[(2, 1)], y[(2, 2)]

    common_head = (
        ddy1*y2*dy2 - dy1*y2*ddy2 - delta*y1*y2*ddy2 + lam*y2*ddy2
        - (delta + c)*dy1*y2*dy2
    )
    common_tail = (
        rho*c*dy1*y2**2 + (rho*delta*c - delta**2*c)*y1*y2**2
        - N*delta*y1*ddy1*y2 + c*ddy1*y2**2 - N*delta*(rho + delta)*y1*dy1*y2
        - N*delta**2*rho*y1**2*y2 + N*delta**2*lam*y1*y2
    )
    if variant == CORRECTED:
        middle = ((delta*rho - delta**2 - delta*c)*y1*y2*dy2
                  + (rho + delta)*dy1*y2*dy2 + lam*c*y2*dy2)
    else:
        # the two transcription slips: the (rho+delta) cross term folded
        # into the y1*y2*y2' coefficient, and a dropped lambda factor
        middle = ((delta*rho + rho + delta - delta**2 - delta*c)*y1*y2*dy2
                  + c*y2*dy2)
    return PhiRelation(variant=variant, expression=common_head + middle + common_tail)


def build_phi_system(phi: PhiRelation, m: OdeModel | None = None) -> PhiSystem:
    """First four total time derivatives of the relation, in output symbols."""
    m = m or hiv_model()
    entries = [phi.expression]
    for _ in range(4):
        entries.append(total_time_derivative(m, entries[-1], OUTPUT_SYMBOLS))
    return PhiSystem(variant=phi.variant, entries=tuple(entries))


def parameter_jacobian(system: PhiSystem,
                       m: OdeModel | None = None) -> tuple[tuple[Expression, ...], ...]:
    """5x5 Jacobian of the system w.r.t. (lambda, delta, rho, c, N).

    Output-derivative symbols are held fixed: differentiation happens
    before any dynamics substitution.
    """
    m = m or hiv_model()
    params = {s.name: s for s in m.const_params}
    cols = [params[n] for n in PARAM_ORDER]
    return tuple(
        tuple(expr.differentiate(entry, p) for p in cols)
        for entry in system.entries
    )


def substitute_dynamics(matrix: Sequence[Sequence[Expression]],
                        m: OdeModel | None = None,
                        max_order: int = 6) -> tuple[tuple[Expression, ...], ...]:
    """Replace every output-derivative symbol y_i^(k) by the k-th jet entry
    of output i, leaving a matrix over states, constant parameters, and the
    tv-parameter chain."""
    m = m or hiv_model()
    bindings: dict[Symbol, Expression] = {}
    for i in range(1, len(m.outputs) + 1):
        jet = output_jet(m, i, max_order)
        for k, entry in enumerate(jet.entries):
            bindings[output_symbol(m, i, k)] = entry
    flat = [e for row in matrix for e in row]
    sub = substitute_many(flat, bindings)
    n = len(matrix[0])
    return tuple(tuple(sub[r * n:(r + 1) * n]) for r in range(len(matrix)))


def phi_vanishes_on_dynamics(phi: PhiRelation,
                             m: OdeModel | None = None) -> tuple[bool, RationalCanonical]:
    """Exact check that the relation is zero along every trajectory:
    substitute the output jets and expand."""
    m = m or hiv_model()
    constrained = substitute_dynamics([[phi.expression]], m, max_order=2)[0][0]
    canonical = normalize(constrained)
    return canonical.is_zero, canonical


# --------------------------------------------------------------- rank test

@dataclass(frozen=True)
class RankReport:
    """Result of a randomized generic-rank measurement."""

    mode: str
    variant: str
    trials: int
    primes: tuple[int, ...]
    observed_ranks: dict[int, int]
    generic_rank: int
    seed: int
    elapsed_ms: int
    structured_point_rank: int | None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "variant": self.variant,
            "trials": self.trials,
            "primes": [str(p) for p in self.primes],
            "observed_ranks": {str(r): n for r, n in sorted(self.observed_ranks.items())},
            "generic_rank": self.generic_rank,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "structured_point_rank": self.structured_point_rank,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


_MILLER_RABIN_BOUND = 318665857834031151167461  # psi_12, OEIS A014233


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37, proven deterministic for
    n < psi_12 = _MILLER_RABIN_BOUND, about 3.2e23 (Sorenson and Webster
    2015). Above it a True is only probable; callers stay below."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by exact Gaussian elimination (field division is by
    modular inverse, so nothing is ever truncated)."""
    a = [row[:] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if a[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(rank + 1, n_rows):
            f = a[r][col] % p
            if f:
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _draw_point(seed: int, p: int, trial, attempt: int, n: int, p_max: int) -> list[int]:
    # string seeding is stable across platforms and runs
    rng = random.Random(f"{seed}:{p}:{trial}:{attempt}")
    return [rng.randrange(p_max) for _ in range(n)]


def generic_rank(matrix: Sequence[Sequence[Expression]],
                 symbols: Sequence[Symbol],
                 trials: int,
                 seed: int,
                 primes: Sequence[int] = DEFAULT_PRIMES,
                 *,
                 structured_point: Mapping[Symbol, int] | None = None,
                 mode: str = "",
                 variant: str = "") -> RankReport:
    """Generic rank of a symbolic matrix by randomized exact evaluation.

    Each trial binds the free symbols to independent uniform elements of
    GF(p) and computes the exact rank there; points on a denominator are
    discarded and redrawn. The generic rank is the maximum over at least
    `trials` valid evaluations per prime and must agree across primes.
    With `structured_point`, the listed symbols are pinned to the given
    values (the rest stay random) and the rank at one such point under the
    first prime is recorded separately.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise ValueError("need at least two distinct primes")
    for p in primes:
        if not 2**60 < p < _MILLER_RABIN_BOUND or not is_prime(p):
            raise ValueError(f"{p} is not a prime between 2^60 and "
                             f"{_MILLER_RABIN_BOUND}")

    started = time.perf_counter()
    symbols = list(symbols)
    order = {s: i for i, s in enumerate(symbols)}
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    program = compile_program([e for row in matrix for e in row], symbols)

    def rank_at(p: int, trial, pinned: Mapping[Symbol, int]) -> int:
        """Rank mod p at the first point drawn for `trial` that misses
        every denominator; the `pinned` symbols keep their values."""
        for attempt in range(_MAX_RETRIES_PER_TRIAL):
            point = _draw_point(seed, p, trial, attempt, len(symbols), p)
            for s, v in pinned.items():
                point[order[s]] = v % p
            try:
                values = program.run_mod(point, p)
            except DivisionByZero:
                continue
            return _rank_mod([values[r * n_cols:(r + 1) * n_cols]
                              for r in range(n_rows)], p)
        raise ExhaustedRetries(
            f"{_MAX_RETRIES_PER_TRIAL} random points in a row hit a "
            f"denominator (prime {p}, trial {trial})")

    observed: dict[int, int] = {}
    per_prime_max: list[int] = []
    for p in primes:
        best = 0
        for trial in range(trials):
            r = rank_at(p, trial, {})
            observed[r] = observed.get(r, 0) + 1
            if r > best:
                best = r
        per_prime_max.append(best)

    if len(set(per_prime_max)) != 1:
        raise PrimeDisagreement(
            f"per-prime generic ranks differ: "
            + ", ".join(f"{p}->{r}" for p, r in zip(primes, per_prime_max)))

    structured_rank = None
    if structured_point is not None:
        structured_rank = rank_at(primes[0], "structured", structured_point)

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return RankReport(
        mode=mode,
        variant=variant,
        trials=trials,
        primes=primes,
        observed_ranks=observed,
        generic_rank=per_prime_max[0],
        seed=seed,
        elapsed_ms=elapsed_ms,
        structured_point_rank=structured_rank,
    )


def run_rank_test(m: OdeModel | None = None,
                  mode: str = "constrained",
                  variant: str = CORRECTED,
                  trials: int = 100,
                  seed: int = 0,
                  primes: Sequence[int] = DEFAULT_PRIMES) -> RankReport:
    """Full pipeline: relation -> derivative system -> parameter Jacobian ->
    (dynamics substitution if constrained) -> randomized generic rank.

    Naive mode treats the outputs and their derivatives as 19 independent
    symbols; constrained mode imposes the dynamics, leaving the 14 symbols
    (5 parameters, 3 states, eta and its first five derivatives).
    """
    if mode not in ("naive", "constrained"):
        raise ValueError(f"unknown mode {mode!r}")
    m = m or hiv_model()
    phi = build_phi(variant, m)
    system = build_phi_system(phi, m)
    matrix = parameter_jacobian(system, m)

    structured = None
    if mode == "constrained":
        matrix = substitute_dynamics(matrix, m)
        # one documented point with a locally constant tv-parameter: the
        # rank bound does not depend on eta actually varying
        tv = m.tv_params[0]
        structured = {tv.derivative(k): 0 for k in range(1, 6)}

    symbols = set()
    for row in matrix:
        for e in row:
            symbols |= free_symbols(e)
    symbols = sorted(symbols, key=Symbol.sort_key)

    return generic_rank(matrix, symbols, trials, seed, primes,
                        structured_point=structured, mode=mode,
                        variant=variant)
