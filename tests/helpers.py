"""Shared test utilities: random expressions, a finite-difference oracle,
reference implementations of expansion and differentiation, a reference
RKF45 stepper, the rank test's serial loop over primes, and a child
interpreter under an address-space cap and a timeout."""

from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from odeident import expr as E
from odeident import ranktest as R
from odeident import transform as T

XYZ = tuple(E.Symbol(n) for n in ("x", "y", "z"))

REPO = Path(__file__).resolve().parents[1]

# what `ulimit -v 2000000` sets: 2,000,000 KiB of address space
_ADDRESS_SPACE_CAP = 2_000_000 * 1024


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))


def run_capped(*args, timeout: float, stdout=subprocess.PIPE):
    """`python ARGS` in a new interpreter on this tree's `src`, started in
    the repository root with one BLAS thread and its address space capped
    at `_ADDRESS_SPACE_CAP`, so that an allocation past the cap raises
    `MemoryError` in the child. Raises `subprocess.TimeoutExpired` after
    `timeout` seconds; returns the `subprocess.CompletedProcess`, with
    standard error captured."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=REPO,
                          preexec_fn=_cap_address_space, timeout=timeout)


def random_expression(rng: random.Random, symbols=XYZ, depth=3) -> E.Expression:
    """Random rational expression over `symbols`.

    Denominators are built as b^2 + k with k >= 1, so they are positive at
    every real point and never the zero polynomial; float evaluation and
    normalization are total on these expressions.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return E.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return E.sym(rng.choice(symbols))
    op = rng.choice(("add", "sub", "mul", "mul", "div", "pow"))
    a = random_expression(rng, symbols, depth - 1)
    if op == "pow":
        return E.pow_(a, rng.randint(0, 3))
    b = random_expression(rng, symbols, depth - 1)
    if op == "add":
        return E.add(a, b)
    if op == "sub":
        return E.sub(a, b)
    if op == "mul":
        return E.mul(a, b)
    return E.div(a, E.add(E.mul(b, b), E.const(rng.randint(1, 3))))


def random_point(rng: random.Random, symbols=XYZ, lo=0.5, hi=1.6) -> dict:
    return {s: rng.uniform(lo, hi) for s in symbols}


def fd_derivative(e: E.Expression, s: E.Symbol, point: dict,
                  h: float = 1e-6) -> float:
    """Central finite difference of `e` in `s` at a float point."""
    x = float(point[s])
    step = h * max(1.0, abs(x))
    up = E.evaluate(e, {**point, s: x + step}, arithmetic="float64")
    dn = E.evaluate(e, {**point, s: x - step}, arithmetic="float64")
    return (up - dn) / (2.0 * step)


def fd_cases(n: int, seed: int = 20240501, depth: int = 3):
    """Yield `n` (expression, symbol, point) cases where the expression is
    numerically tame at the point (keeps the finite-difference error well
    below the comparison tolerance)."""
    rng = random.Random(seed)
    produced = 0
    while produced < n:
        e = random_expression(rng, depth=depth)
        s = rng.choice(XYZ)
        point = random_point(rng)
        try:
            value = E.evaluate(e, point, arithmetic="float64")
        except E.DivisionByZero:
            continue
        if abs(value) > 1e3:
            continue
        yield e, s, point
        produced += 1


# ------------------------------------- reference expansion and derivative
#
# The engine's earlier `normalize` and `differentiate`, written directly
# on Symbol-keyed monomials with Fraction coefficients and one DAG
# traversal per symbol. `odeident.expr` must agree with them exactly:
# the same polynomial dicts in the same insertion order, and the same
# derivative node objects.

_REF_ONE = {(): Fraction(1)}


def _ref_mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for s, k in m2:
        merged[s] = merged.get(s, 0) + k
    return tuple(sorted(merged.items(), key=lambda it: it[0].sort_key()))


def _ref_poly_add(p1, p2):
    if not p1:
        return p2
    if not p2:
        return p1
    out = dict(p1)
    for m, c in p2.items():
        v = out.get(m)
        if v is None:
            out[m] = c
        else:
            v = v + c
            if v == 0:
                del out[m]
            else:
                out[m] = v
    return out


def _ref_poly_scale(p, f):
    if f == 0:
        return {}
    if f == 1:
        return p
    return {m: c * f for m, c in p.items()}


def _ref_poly_mul(p1, p2):
    if not p1 or not p2:
        return {}
    if p1 is _REF_ONE:
        return p2
    if p2 is _REF_ONE:
        return p1
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _ref_mono_mul(m1, m2)
            v = out.get(m)
            if v is None:
                out[m] = c1 * c2
            else:
                v = v + c1 * c2
                if v == 0:
                    del out[m]
                else:
                    out[m] = v
    return out


def _ref_poly_pow(p, k):
    result = _REF_ONE
    base = p
    while k:
        if k & 1:
            result = _ref_poly_mul(result, base)
        base = _ref_poly_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def reference_normalize(e: E.Expression) -> E.RationalCanonical:
    """Expand `e` the way the engine did before it indexed its symbols."""
    memo = {}
    for node in E.topo_order([e]):
        if isinstance(node, E.Const):
            num = {(): node.value} if node.value != 0 else {}
            memo[id(node)] = (num, _REF_ONE)
        elif isinstance(node, E.Sym):
            memo[id(node)] = ({((node.symbol, 1),): Fraction(1)}, _REF_ONE)
        elif isinstance(node, E.Sum):
            n, d = memo[id(node.args[0])]
            for child in node.args[1:]:
                n2, d2 = memo[id(child)]
                if d is d2 is _REF_ONE:
                    n = _ref_poly_add(n, n2)
                else:
                    n = _ref_poly_add(_ref_poly_mul(n, d2), _ref_poly_mul(n2, d))
                    d = _ref_poly_mul(d, d2)
            memo[id(node)] = (n, d)
        elif isinstance(node, E.Difference):
            n1, d1 = memo[id(node.args[0])]
            n2, d2 = memo[id(node.args[1])]
            n2 = _ref_poly_scale(n2, Fraction(-1))
            if d1 is d2 is _REF_ONE:
                memo[id(node)] = (_ref_poly_add(n1, n2), _REF_ONE)
            else:
                memo[id(node)] = (
                    _ref_poly_add(_ref_poly_mul(n1, d2), _ref_poly_mul(n2, d1)),
                    _ref_poly_mul(d1, d2),
                )
        elif isinstance(node, E.Product):
            n, d = _REF_ONE, _REF_ONE
            for child in node.args:
                n2, d2 = memo[id(child)]
                n = _ref_poly_mul(n, n2)
                d = _ref_poly_mul(d, d2)
            memo[id(node)] = (n, d)
        elif isinstance(node, E.Quotient):
            n1, d1 = memo[id(node.args[0])]
            n2, d2 = memo[id(node.args[1])]
            if not n2:
                raise E.DenominatorIdenticallyZero(
                    "denominator expands to the zero polynomial")
            memo[id(node)] = (_ref_poly_mul(n1, d2), _ref_poly_mul(d1, n2))
        else:  # Power
            n, d = memo[id(node.args[0])]
            k = node.exponent
            if k >= 0:
                memo[id(node)] = (_ref_poly_pow(n, k), _ref_poly_pow(d, k))
            else:
                if not n:
                    raise E.DenominatorIdenticallyZero(
                        "zero raised to a negative power")
                memo[id(node)] = (_ref_poly_pow(d, -k), _ref_poly_pow(n, -k))
    num, den = memo[id(e)]
    return E.RationalCanonical(num, dict(den))


def reference_differentiate(e: E.Expression, s: E.Symbol) -> E.Expression:
    """d e / d s with one traversal of `e` for this one symbol."""
    order = E.topo_order([e])
    mentions = {}
    for node in order:
        if isinstance(node, E.Sym):
            mentions[id(node)] = node.symbol == s
        elif isinstance(node, E.Const):
            mentions[id(node)] = False
        else:
            mentions[id(node)] = any(mentions[id(c)] for c in node.args)

    memo = {}
    for node in order:
        if not mentions[id(node)]:
            memo[id(node)] = E.ZERO
            continue
        if isinstance(node, E.Sym):
            memo[id(node)] = E.ONE
        elif isinstance(node, E.Sum):
            memo[id(node)] = E.add(*(memo[id(c)] for c in node.args
                                     if mentions[id(c)]))
        elif isinstance(node, E.Difference):
            a, b = node.args
            memo[id(node)] = E.sub(memo[id(a)], memo[id(b)])
        elif isinstance(node, E.Product):
            terms = []
            fs = node.args
            for i, f in enumerate(fs):
                if mentions[id(f)]:
                    terms.append(E.mul(*fs[:i], memo[id(f)], *fs[i + 1:]))
            memo[id(node)] = E.add(*terms)
        elif isinstance(node, E.Quotient):
            n, d = node.args
            if not mentions[id(d)]:
                memo[id(node)] = E.div(memo[id(n)], d)
            else:
                num = E.sub(E.mul(memo[id(n)], d), E.mul(n, memo[id(d)]))
                memo[id(node)] = E.div(num, E.pow_(d, 2))
        else:  # Power
            b = node.args[0]
            k = node.exponent
            memo[id(node)] = E.mul(E.const(k), E.pow_(b, k - 1), memo[id(b)])
    return memo[id(e)]



def identity_residuals() -> list:
    """The three residuals `transform.verify_identities` expands; each is
    zero as a rational function when its identity holds."""
    residuals = []
    normalize = E.normalize

    def recording(e):
        residuals.append(e)
        return normalize(e)

    E.normalize = recording
    try:
        T.verify_identities()
    finally:
        E.normalize = normalize
    return residuals

# ----------------------------------------------- reference tau-family maps
#
# The numeric maps of the tau family written by hand in plain arithmetic,
# independent of the expression engine: the compiled closed forms of
# `odeident.transform` must agree with them bit for bit on floats and
# float64 arrays, and exactly on Fractions.

def _reference_admissible_denominator(params, u):
    """The delta' denominator; SingularTau unless it is at least 1e-12."""
    den = (params.rho - params.delta) * u + params.delta
    if den < T._DENOM_EPS:
        raise T.SingularTau(
            f"delta' denominator (rho-delta)*u + delta = {den} at u = {u}; "
            f"admissible tau interval: {T.admissible_tau_interval(params)}")
    return den


def reference_transform_params(params, *, u):
    """Transformed constants: delta' = delta*rho / ((rho-delta)*u + delta),
    N' = N*u; lambda, rho, c unchanged. u == 1 is the identity, exactly."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return params
    return T.Params(
        lam=params.lam,
        delta=params.delta * params.rho / _reference_admissible_denominator(params, u),
        rho=params.rho,
        c=params.c,
        N=params.N * u,
    )


def reference_transform_state(T_U, T_I, V, params, *, u):
    """Transformed states: T_I' = a*T_I, T_U' = T_U + (1-a)*T_I, V' = V,
    with a = (delta/u + rho - delta)/rho."""
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return T_U, T_I, V
    _reference_admissible_denominator(params, u)  # raises SingularTau
    a = (params.delta / u + params.rho - params.delta) / params.rho
    T_I_p = T_I * a
    return T_U + T_I - T_I_p, T_I_p, V


def reference_eta_prime_value(T_U, T_I, V, eta, params, *, u):
    """Transformed time-varying parameter, evaluated as printed:

        eta' = [eta T_U V rho u + (T_I d^2 - T_I d rho - eta T_U V d)(u-1)]
               / [V (T_I d + T_U rho) u - V T_I d]              (d = delta)

    Raises SingularPoint when the denominator falls below 1e-12 of the
    natural scale V rho (T_U + T_I) u; one that overflows is no pole.
    """
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    if u == 1:
        return eta
    num, den, scale = _reference_eta_prime_parts(T_U, T_I, V, eta, params, u)
    if den == 0 or abs(den) <= T._DENOM_EPS * scale and abs(den) < math.inf:
        raise T.SingularPoint(
            f"eta' denominator {den} vanishes relative to scale {scale}")
    return num / den


def reference_eta_prime_values(T_U, T_I, V, eta, params, *, u):
    """reference_eta_prime_value for a stack of twins, one per entry of u:
    entries with u == 1 give eta exactly, and any other entry at its pole
    raises SingularPoint."""
    num, den, scale = _reference_eta_prime_parts(T_U, T_I, V, eta, params, u)
    same = u == 1
    bad = ((den == 0) | ((abs(den) <= T._DENOM_EPS * scale)
                         & (abs(den) < math.inf))) & ~same
    if bad.any():
        i = int(np.argmax(bad))
        raise T.SingularPoint(f"eta' denominator {den[i]} vanishes relative "
                              f"to scale {scale[i]} at u = {u[i]}")
    return np.where(same, eta, num / np.where(same, 1.0, den))


def _reference_eta_prime_parts(T_U, T_I, V, eta, params, u):
    """Numerator, denominator and natural scale of eta' in plain
    arithmetic, so floats and numpy arrays alike."""
    d, rho = params.delta, params.rho
    num = eta*T_U*V*rho*u + (T_I*d*d - T_I*d*rho - eta*T_U*V*d) * (u - 1)
    den = V * (T_I*d + T_U*rho) * u - V*T_I*d
    scale = abs(V * rho * (T_U + T_I) * u)
    return num, den, scale

# ------------------------------------------------- reference RKF45 stepper

_C = (0.0, 1/4, 3/8, 12/13, 1.0, 1/2)
_A = ((), (1/4,), (3/32, 9/32), (1932/2197, -7200/2197, 7296/2197),
      (439/216, -8.0, 3680/513, -845/4104),
      (-8/27, 2.0, -3554/2565, 1859/4104, -11/40))
_B4 = (25/216, 0.0, 1408/2565, 2197/4104, -1/5, 0.0)
_B5 = (16/135, 0.0, 6656/12825, 28561/56430, -9/50, 2/55)
_E = tuple(b4 - b5 for b4, b5 in zip(_B4, _B5))


def reference_solve(f, y0, cfg) -> np.ndarray:
    """The Fehlberg 4(5) stepper written the generic way on numpy arrays:
    stage sums `y + h * sum(a * k for ...)`, the same step control and the
    same dense output as `odeident.sim._solve`, which must agree with it
    bit for bit. f takes and returns arrays (or sequences); a 2-D y0
    stacks systems as rows."""
    def finite(x):
        return bool(np.all(np.isfinite(x)))

    def hermite(t0, h, y0, y1, f0, f1, ts):
        theta = ((ts - t0) / h).reshape((-1,) + (1,) * y0.ndim)
        d = y1 - y0
        return ((1 - theta) * y0 + theta * y1
                + theta * (theta - 1)
                * ((1 - 2 * theta) * d + (theta - 1) * h * f0
                   + theta * h * f1))

    grid = cfg.grid()
    t, tf = cfg.t0, cfg.tf
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    max_step = cfg.max_step if cfg.max_step is not None else tf - t
    y = np.asarray(y0, dtype=float)
    states = np.empty((len(grid), *y.shape))
    filled = 0
    at_end = 1e-13 * max(abs(tf), 1.0)
    f_left = np.asarray(f(t, y), dtype=float)
    h = min(max_step, (tf - t) / 100.0)
    k = [None] * 6
    while tf - t > at_end:
        h = min(h, max_step, tf - t)
        assert h >= 1e-14 * max(abs(t), 1.0), "step size underflow"
        k[0] = f_left
        failed = False
        for i in range(1, 6):
            yi = y + h * sum(a * ki for a, ki in zip(_A[i], k[:i]))
            if not finite(yi):
                failed = True
                break
            k[i] = np.asarray(f(t + _C[i] * h, yi), dtype=float)
        if not failed:
            y4 = y + h * sum(b * ki for b, ki in zip(_B4, k))
            err_vec = h * sum(e * ki for e, ki in zip(_E, k))
            failed = not (finite(y4) and finite(err_vec))
        if failed:
            h *= 0.2
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y4))
        sq = (err_vec / scale) ** 2
        err = math.sqrt(float(sq.sum(axis=-1).max()) / sq.shape[-1])
        if err <= 1.0:
            t_right = t + h
            f_right = np.asarray(f(t_right, y4), dtype=float)
            if tf - t_right > at_end:
                stop = np.searchsorted(grid, t_right, "left")
            else:
                stop = np.searchsorted(grid, t_right + 1e-12, "right")
            if stop > filled:
                states[filled:stop] = hermite(t, h, y, y4, f_left, f_right,
                                              grid[filled:stop])
                filled = stop
            t, y, f_left = t_right, y4, f_right
            h *= 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    states[filled:] = y
    return states


# --------------------------------------------- reference generic rank

def reference_rank_mod(rows, p) -> int:
    """Rank over GF(p) by exact Gaussian elimination under one prime,
    dividing by modular inverses. `ranktest._rank_mod` eliminates modulo a
    product of primes and takes no inverse; it must agree with this."""
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


# The rank test's earlier loop, primes outer and trials inner, evaluating
# every point under one prime at a time and ranking it with
# `reference_rank_mod`. `ranktest.generic_rank` goes trial by trial,
# evaluating all primes at once and each prime alone only where the lifted
# point hits a denominator, and ranks modulo the product. It must report
# exactly what this loop reports and raise what it raises, with the same
# message.

def reference_generic_rank(matrix, trials, seed, primes=R.DEFAULT_PRIMES, *,
                           structured_point=None) -> R.RankReport:
    primes = R._checked_rank_args(trials, primes)

    flat = [e for row in matrix for e in row]
    symbols = sorted(E.free_symbols(*flat), key=E.Symbol.sort_key)
    order = {s: i for i, s in enumerate(symbols)}
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    program = E.compile_program(flat, symbols)

    def rank_at(p, trial, pinned):
        for attempt in range(R._MAX_RETRIES_PER_TRIAL):
            point = R._draw_point(seed, p, trial, attempt, len(symbols))
            for s, v in pinned.items():
                point[order[s]] = v % p
            try:
                values = program.run_mod(point, p)
            except E.DivisionByZero:
                continue
            return reference_rank_mod([values[r * n_cols:(r + 1) * n_cols]
                                       for r in range(n_rows)], p)
        raise R.ExhaustedRetries(
            f"{R._MAX_RETRIES_PER_TRIAL} random points in a row hit a "
            f"denominator (prime {p}, trial {trial})")

    observed = {}
    per_prime_max = []
    for p in primes:
        best = 0
        for trial in range(trials):
            r = rank_at(p, trial, {})
            observed[r] = observed.get(r, 0) + 1
            if r > best:
                best = r
        per_prime_max.append(best)

    if len(set(per_prime_max)) != 1:
        raise R.PrimeDisagreement(
            f"per-prime generic ranks differ: "
            + ", ".join(f"{p}->{r}" for p, r in zip(primes, per_prime_max)))

    structured_rank = None
    if structured_point is not None:
        structured_rank = rank_at(primes[0], "structured", structured_point)

    return R.RankReport(mode="", variant="", trials=trials, primes=primes,
                        observed_ranks=observed,
                        generic_rank=per_prime_max[0], seed=seed,
                        elapsed_ms=0, structured_point_rank=structured_rank)
