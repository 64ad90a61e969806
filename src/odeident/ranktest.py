"""Parameter-identifiability rank test for the bundled HIV model.

The pipeline, plain functions of expressions: build the second-order
input-output relation linking the two outputs, differentiate it four times
along trajectories (treating output derivatives as formal symbols), take
the Jacobian of the resulting 5-vector with respect to (lambda, delta,
rho, c, N), optionally impose the dynamics by substituting output jets as
deep as the matrix needs (order 6), and measure the generic rank of the
5x5 matrix by exact evaluation at random points of large prime fields.
Each trial evaluates the matrix once modulo the product of the primes and
ranks it there by one fraction-free elimination, which takes no modular
inverse and gives the rank modulo every prime at once. A trial that gives
no single rank there, because the lifted point hits a denominator or a
pivot column is zero under only some primes, is redone prime by prime, in
one place (`_ranks_at`). None of the
algebra depends on the seed, the trials or the primes, so `run_rank_test`
builds and compiles the matrix of each (mode, variant) once per process
and keeps only its program, which carries the symbols it binds, and its
column count. From the compiled program on, `generic_rank` and
`run_rank_test` take one path: every verdict draws, evaluates and
eliminates all its points.
Differentiation happens before the dynamics substitution; the two orders
are not interchangeable and the first is the one this test means.

The "corrected" relation vanishes identically along trajectories. The
"miao" variant differs in exactly two terms and does not vanish, which is
what separates a naive generic rank of 5 from the dynamics-constrained
rank of at most 4.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random
import time
from typing import Mapping, Sequence

from . import expr
from .expr import (
    OUTPUT_DERIV,
    DivisionByZero, Expression, Symbol,
    free_symbols, substitute_many, sym,
)
from .model import derivative_chain, hiv_model, output_jet, output_symbol

__all__ = [
    "CORRECTED", "MIAO_AS_PRINTED", "DEFAULT_PRIMES", "PARAM_ORDER",
    "ExhaustedRetries", "PrimeDisagreement",
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

def build_phi(variant: str = CORRECTED) -> Expression:
    """The input-output relation over y1, y2, their first two derivatives
    and the five constant parameters; `variant` selects the corrected form
    or the earlier printed form it amends (two terms differ)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    m = hiv_model()
    params = {s.name: sym(s) for s in m.const_params}
    lam, delta, rho, c, N = (params[n] for n in PARAM_ORDER)
    y1, dy1, ddy1, y2, dy2, ddy2 = (sym(output_symbol(m, i, k))
                                    for i in (1, 2) for k in range(3))

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
    return common_head + middle + common_tail


def build_phi_system(phi: Expression) -> tuple[Expression, ...]:
    """The relation and its first four total time derivatives in output
    symbols, one `derivative_chain`; entry k has output orders to k+2."""
    return tuple(itertools.islice(derivative_chain(hiv_model(), phi), 5))


def parameter_jacobian(system: Sequence[Expression]
                       ) -> tuple[tuple[Expression, ...], ...]:
    """5x5 Jacobian of the system w.r.t. (lambda, delta, rho, c, N).

    Output-derivative symbols are held fixed: differentiation happens
    before any dynamics substitution.
    """
    params = {s.name: s for s in hiv_model().const_params}
    return expr.partials(system, [params[n] for n in PARAM_ORDER])


def substitute_dynamics(matrix: Sequence[Sequence[Expression]]
                        ) -> tuple[tuple[Expression, ...], ...]:
    """Replace every output-derivative symbol y_i^(k) by the k-th jet entry
    of output i, leaving a matrix over states, constant parameters, and the
    tv-parameter chain. Each output's jet goes as deep as the highest
    derivative of it that the matrix holds."""
    m = hiv_model()
    flat = [e for row in matrix for e in row]
    orders: dict[int, int] = {}
    for s in free_symbols(*flat):
        if s.kind == OUTPUT_DERIV:
            orders[s.output_index] = max(orders.get(s.output_index, 0), s.order)
    bindings = {output_symbol(m, i, k): entry for i in sorted(orders)
                for k, entry in enumerate(output_jet(m, i, orders[i]).entries)}
    sub = substitute_many(flat, bindings)
    n = len(matrix[0])
    return tuple(tuple(sub[r * n:(r + 1) * n]) for r in range(len(matrix)))


def phi_vanishes_on_dynamics(phi: Expression
                             ) -> tuple[bool, expr.RationalCanonical]:
    """Exact check that the relation is zero along every trajectory:
    substitute the output jets and expand."""
    canonical = expr.normalize(substitute_dynamics([[phi]])[0][0])
    return canonical.is_zero, canonical


# --------------------------------------------------------------- rank test

@dataclasses.dataclass(frozen=True)
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
        """The fields in their order, the primes as strings (JSON numbers
        past 2^53 lose digits in many readers) and the observed ranks keyed
        by their rank as a string, in rank order."""
        return {**dataclasses.asdict(self),
                "primes": [str(p) for p in self.primes],
                "observed_ranks": {str(r): n for r, n
                                   in sorted(self.observed_ranks.items())}}


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


def _rank_mod(rows: list[list[int]], m: int) -> int | None:
    """The rank of the integer matrix `rows` modulo m, a prime or a product
    of distinct primes, by one fraction-free elimination, or None where it
    is not one rank for every prime of m.

    A pivot pv must be a unit mod m, so a unit mod every prime: the row
    update pv*v - f*w then scales a row by a unit and subtracts a multiple
    of the pivot row, which keeps every rank mod p, and no inverse is
    taken. A column whose entries left are all non-units but not all zero
    mod m may hold a pivot under some primes and none under others: that
    gives None, and the caller ranks mod each prime alone. Under one prime
    every nonzero entry is a unit, so a prime never gives None. `rows` is
    not mutated."""
    rank = 0
    while rows and rows[0]:
        pivot = next((r for r, row in enumerate(rows)
                      if math.gcd(row[0], m) == 1), None)
        if pivot is None:
            if any(row[0] % m for row in rows):
                return None
            rows = [row[1:] for row in rows]
            continue
        pv, *head = rows[pivot]
        rows = [[(pv * v - f * w) % m for v, w in zip(tail, head)] if f
                else tail for f, *tail in rows[:pivot] + rows[pivot + 1:]]
        rank += 1
    return rank


def _draw_point(seed: int, p: int, trial, attempt: int, n: int) -> list[int]:
    # string seeding is stable across platforms and runs
    rng = random.Random(f"{seed}:{p}:{trial}:{attempt}")
    return [rng.randrange(p) for _ in range(n)]


def _checked_rank_args(trials: int, primes: Sequence[int]) -> tuple[int, ...]:
    """The primes as a tuple, once `trials` and `primes` pass the rules both
    public rank entry points check before any algebra: at least one trial,
    at least two distinct primes, each a proven prime in (2^60, psi_12)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    primes = tuple(primes)
    if len(set(primes)) < 2:
        raise ValueError("need at least two distinct primes")
    for p in primes:
        if not 2**60 < p < _MILLER_RABIN_BOUND or not is_prime(p):
            raise ValueError(f"{p} is not a prime between 2^60 and "
                             f"{_MILLER_RABIN_BOUND}")
    return primes


def _ranks_at(program: expr.Program, n_cols: int, seed: int, trial,
              primes: tuple[int, ...], pinned: Mapping[int, int]) -> list[int]:
    """Rank mod each of `primes` of the matrix, `n_cols` entries a row,
    that `program` computes, at the first point drawn for `trial` under
    that prime that misses every denominator; a point holds one value per
    input of `program`, and the inputs whose index `pinned` maps keep their
    values.

    The primes' points are lifted by CRT to one point mod their product,
    evaluated and eliminated once there. Where that is not one rank for
    every prime, because the lifted point hits a denominator or a pivot
    column is zero under only some primes, the trial is redone prime by
    prime, each drawing the points it drew in the lifted run; a prime
    alone redraws only after a denominator. A module function, so that
    its retry per prime refers to no closure and a `generic_rank` run's
    program dies with the run; `run_rank_test`'s programs live in the
    process's cache of them."""
    modulus = math.prod(primes)
    lift = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    for attempt in range(_MAX_RETRIES_PER_TRIAL if len(primes) == 1
                         else 1):
        points = [_draw_point(seed, p, trial, attempt, program.n_inputs)
                  for p in primes]
        for point, p in zip(points, primes):
            for i, v in pinned.items():
                point[i] = v % p
        try:
            values = program.run_mod(
                [sum(map(operator.mul, lift, xs)) for xs in zip(*points)],
                modulus)
        except DivisionByZero:
            rank = None
        else:
            # a matrix without columns has no entries, and rank 0
            rank = _rank_mod([values[i:i + n_cols] for i in
                              range(0, len(values), n_cols or 1)], modulus)
        if rank is not None:
            return [rank] * len(primes)
        if len(primes) > 1:
            return [_ranks_at(program, n_cols, seed, trial, (p,), pinned)[0]
                    for p in primes]
    raise ExhaustedRetries(
        f"{_MAX_RETRIES_PER_TRIAL} random points in a row hit a "
        f"denominator (prime {primes[0]}, trial {trial})")


def _flat(matrix: Sequence[Sequence[Expression]]
          ) -> tuple[list[Expression], tuple[Symbol, ...], int]:
    """The entries of `matrix` row by row, its free symbols in
    `Symbol.sort_key` order, which `compile_program` takes as the program's
    inputs, and its column count; a ragged matrix raises ValueError."""
    n_cols = len(matrix[0]) if matrix else 0
    if any(len(row) != n_cols for row in matrix):
        raise ValueError(f"matrix rows differ in length: "
                         f"{sorted({len(row) for row in matrix})}")
    flat = [e for row in matrix for e in row]
    symbols = tuple(sorted(free_symbols(*flat), key=Symbol.sort_key))
    return flat, symbols, n_cols


def _rank_report(program: expr.Program, n_cols: int, trials: int, seed: int,
                 primes: tuple[int, ...],
                 structured_point: Mapping[Symbol, int] | None) -> RankReport:
    """The report of `generic_rank` for the matrix, `n_cols` entries a row,
    that `program` computes from its inputs, once the arguments are
    checked: every trial's points drawn, evaluated and eliminated. Its
    `mode` and `variant` are empty. `elapsed_ms` times this alone, so it
    includes emitting and exec'ing the modular source only on the
    program's first run."""
    started = time.perf_counter()
    ranks_at = functools.partial(_ranks_at, program, n_cols, seed)

    observed: dict[int, int] = {}
    per_prime_max = [0] * len(primes)
    for trial in range(trials):
        for i, r in enumerate(ranks_at(trial, primes, {})):
            observed[r] = observed.get(r, 0) + 1
            per_prime_max[i] = max(per_prime_max[i], r)

    if len(set(per_prime_max)) != 1:
        raise PrimeDisagreement(
            f"per-prime generic ranks differ: "
            + ", ".join(f"{p}->{r}" for p, r in zip(primes, per_prime_max)))

    structured_rank = None
    if structured_point is not None:
        index = {s: i for i, s in enumerate(program.input_symbols)}
        structured_rank = ranks_at("structured", primes[:1], {
            index[s]: v for s, v in structured_point.items()})[0]

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return RankReport(
        mode="",
        variant="",
        trials=trials,
        primes=primes,
        observed_ranks=observed,
        generic_rank=per_prime_max[0],
        seed=seed,
        elapsed_ms=elapsed_ms,
        structured_point_rank=structured_rank,
    )


def generic_rank(matrix: Sequence[Sequence[Expression]],
                 trials: int,
                 seed: int,
                 primes: Sequence[int] = DEFAULT_PRIMES,
                 *,
                 structured_point: Mapping[Symbol, int] | None = None
                 ) -> RankReport:
    """Generic rank of a symbolic matrix by randomized exact evaluation.

    Each trial binds the free symbols, in `Symbol.sort_key` order, to
    independent uniform elements of GF(p) and computes the exact rank
    there; points on a denominator are discarded and redrawn. The generic
    rank is the maximum over `trials` valid evaluations per prime and must
    agree across primes. With `structured_point`, the listed symbols are
    pinned to the given values (the rest stay random) and the rank at one
    such point under the first prime is recorded separately. The report's
    `mode` and `variant` are left empty; `run_rank_test` labels its own.

    Each evaluation serves one or more primes: every prime draws its own
    point, the points are lifted by the Chinese remainder theorem to one
    point mod the product of the primes and evaluated once there
    (`Program.run_mod` reduces lazily), and the matrix is ranked there by
    one elimination whose pivots are units mod every prime (`_rank_mod`).
    One fallback covers both ways that can fail to give every prime its
    rank, a lifted point on a denominator and a column whose entries left
    are each zero under some prime but not all zero mod the product: the
    trial is evaluated and eliminated under each prime alone, and each
    prime redraws only its own points, so the draws, retries, errors and
    report are those of one prime at a time.

    A ragged matrix, and a structured point that pins a symbol the matrix
    does not hold or to a value that is not an int, raise ValueError
    before anything is compiled. The matrix is compiled on every call, its
    program carries the symbols it binds, and it dies with the run.
    """
    primes = _checked_rank_args(trials, primes)
    flat, symbols, n_cols = _flat(matrix)
    for s, v in (structured_point or {}).items():
        name = getattr(s, "display", repr(s))
        if s not in symbols:
            raise ValueError(f"structured point pins {name}, which the "
                             f"matrix does not hold")
        if not isinstance(v, int):
            raise ValueError(f"structured point value of {name} must be an "
                             f"int, got {v!r}")
    return _rank_report(expr.compile_program(flat, symbols), n_cols, trials,
                        seed, primes, structured_point)


@functools.cache
def _hiv_rank_program(mode: str, variant: str
                      ) -> tuple[expr.Program, int]:
    """The HIV parameter Jacobian of `mode` and `variant`, compiled (the
    program carries the symbols it binds), with its column count. Built
    once per process per key; it holds no expression, so the DAG it was
    built from is freed."""
    matrix = parameter_jacobian(build_phi_system(build_phi(variant)))
    if mode == "constrained":
        matrix = substitute_dynamics(matrix)
    flat, symbols, n_cols = _flat(matrix)
    return expr.compile_program(flat, symbols), n_cols


def run_rank_test(mode: str = "constrained",
                  variant: str = CORRECTED,
                  trials: int = 100,
                  seed: int = 0,
                  primes: Sequence[int] = DEFAULT_PRIMES) -> RankReport:
    """Full pipeline: relation -> derivative system -> parameter Jacobian ->
    (dynamics substitution if constrained) -> randomized generic rank.

    Naive mode treats the outputs and their derivatives as 19 independent
    symbols; constrained mode imposes the dynamics, leaving the 14 symbols
    (5 parameters, 3 states, eta and its first five derivatives).

    The matrix of each (mode, variant) is built and compiled on its first
    verdict in the process and kept, as a program only; every verdict
    still draws, evaluates and eliminates all its points, on the path
    `generic_rank` takes once it has compiled its matrix.
    """
    primes = _checked_rank_args(trials, primes)
    if mode not in ("naive", "constrained"):
        raise ValueError(f"unknown mode {mode!r}")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")

    structured = None
    if mode == "constrained":
        # one documented point with a locally constant tv-parameter: the
        # rank bound does not depend on eta actually varying
        tv = hiv_model().tv_params[0]
        structured = {tv.derivative(k): 0 for k in range(1, 6)}

    report = _rank_report(*_hiv_rank_program(mode, variant), trials, seed,
                          primes, structured)
    return dataclasses.replace(report, mode=mode, variant=variant)
