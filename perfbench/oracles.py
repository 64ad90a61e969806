"""Reference answers computed by code that shares nothing with odeident.

`hiv_jets_sympy` gets the output derivatives at t = 0 from the power
series of the solution (Picard iteration on truncated polynomials in
sympy), not from repeated total derivatives. `jacobian_entry_sympy`
rebuilds the corrected input-output relation in sympy and takes its
parameter derivative and total time derivatives there.
`hiv_trajectory_scipy` integrates the original system with scipy's
DOP853, a different integrator from odeident's RKF45.
"""

from __future__ import annotations

PARAM_NAMES = ("lambda", "delta", "rho", "c", "N")


def hiv_jets_sympy(state0, params, eta_chain, order):
    """y1 and y2 and their first `order` derivatives at t = 0, as exact
    sympy rationals.

    state0 is (T_U, T_I, V), params maps PARAM_NAMES to values and
    eta_chain holds eta and its derivatives at 0 (length `order`).
    """
    import sympy as sp

    t = sp.Symbol("t")
    R = sp.Rational
    lam, delta, rho, c, N = (R(params[n]) for n in PARAM_NAMES)
    eta = sum(R(e) * t**k / sp.factorial(k) for k, e in enumerate(eta_chain))

    def truncate(expr):
        poly = sp.Poly(sp.expand(expr), t, domain=sp.QQ)
        return sum(coef * t**mono[0] for mono, coef in poly.terms()
                   if mono[0] <= order)

    x0 = [R(v) for v in state0]
    x = list(x0)
    # each Picard pass fixes one more Taylor coefficient
    for _ in range(order + 1):
        tu, ti, v = x
        rhs = (lam - rho*tu - eta*tu*v, eta*tu*v - delta*ti, N*delta*ti - c*v)
        x = [truncate(a + sp.integrate(truncate(f), (t, 0, t)))
             for a, f in zip(x0, rhs)]

    def chain(series):
        poly = sp.Poly(series, t, domain=sp.QQ)
        return [poly.coeff_monomial(t**k) * sp.factorial(k)
                for k in range(order + 1)]

    return chain(x[0] + x[1]), chain(x[2])


def jacobian_entry_sympy(row, col, params, y1_chain, y2_chain):
    """Entry (row, col) of the parameter Jacobian of the corrected
    relation and its total time derivatives, with the output derivatives
    then bound to the given chains: d/dp_col of phi^(row)."""
    import sympy as sp

    P = {n: sp.Symbol(n) for n in PARAM_NAMES}
    depth = row + 3
    Y = {(i, k): sp.Symbol(f"y{i}_{k}") for i in (1, 2) for k in range(depth + 1)}
    lam, delta, rho, c, N = (P[n] for n in PARAM_NAMES)
    y1, dy1, ddy1 = Y[1, 0], Y[1, 1], Y[1, 2]
    y2, dy2, ddy2 = Y[2, 0], Y[2, 1], Y[2, 2]
    phi = (ddy1*y2*dy2 - dy1*y2*ddy2 - delta*y1*y2*ddy2 + lam*y2*ddy2
           - (delta + c)*dy1*y2*dy2
           + (delta*rho - delta**2 - delta*c)*y1*y2*dy2
           + (rho + delta)*dy1*y2*dy2 + lam*c*y2*dy2
           + rho*c*dy1*y2**2 + (rho*delta*c - delta**2*c)*y1*y2**2
           - N*delta*y1*ddy1*y2 + c*ddy1*y2**2
           - N*delta*(rho + delta)*y1*dy1*y2
           - N*delta**2*rho*y1**2*y2 + N*delta**2*lam*y1*y2)

    def total_derivative(e):
        return sum(sp.diff(e, Y[i, k]) * Y[i, k + 1]
                   for i in (1, 2) for k in range(depth))

    # the parameters are constants, so d/dp commutes with d/dt
    entry = sp.diff(phi, P[PARAM_NAMES[col]])
    for _ in range(row):
        entry = total_derivative(entry)
    values = {P[n]: sp.Rational(params[n]) for n in PARAM_NAMES}
    for k in range(depth + 1):
        values[Y[1, k]] = y1_chain[k]
        values[Y[2, k]] = y2_chain[k]
    return entry.subs(values)


def hiv_trajectory_scipy(state0, params, eta, times, tol=1e-12):
    """States of the original HIV system on `times`, by DOP853."""
    import numpy as np
    from scipy.integrate import solve_ivp

    lam, delta, rho, c, N = (float(params[n]) for n in PARAM_NAMES)

    def rhs(t, y):
        tu, ti, v = y
        e = eta(t)
        return [lam - rho*tu - e*tu*v, e*tu*v - delta*ti, N*delta*ti - c*v]

    sol = solve_ivp(rhs, (float(times[0]), float(times[-1])),
                    [float(v) for v in state0], method="DOP853",
                    t_eval=np.asarray(times, dtype=float), rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    return sol.y.T
