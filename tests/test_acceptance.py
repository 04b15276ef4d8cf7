"""Acceptance gate: seven end-to-end criteria, one test (and one
pass/fail line) per criterion.

Each criterion prints a one-line summary on success; a failing criterion
fails its test, so a verbose run shows exactly one pass/fail line per
criterion either way.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from delaymat import (
    DelaySystem,
    DiscreteFundamental,
    HistorySpec,
    IntegratorConfig,
    build_fundamental_continuous,
    build_q_table,
    fixtures,
    integrate_continuous,
    oracle,
    solve_continuous,
    solve_discrete,
    step_discrete,
)
from delaymat.generators import (
    random_discrete_scalar_data,
    random_scalar_forcing,
    random_scalar_history,
    random_system,
)
from calculus import differentiate, knot_jumps, zero_poly
from commutative_reference import (
    binomial,
    fundamental_commutative_continuous,
    fundamental_commutative_discrete,
    random_commuting_polynomial_pair,
)
from delaymat.cli import _compare_windows
from delaymat.linalg import max_abs
from delaymat.ppoly import PiecewiseMatrixPolynomial


def report(line):
    print(line)


def window_gap(closed, ref, times, width):
    """Largest relative gap of ``delaymat verify`` over the delay windows
    ``[k width, (k+1) width)`` that ``times`` fall in: ``max|closed - ref|
    / max(max|ref|, 1)`` per window (see ``cli._compare_windows``), so up
    to magnitude 1 it is the absolute gap."""
    index = np.floor(np.asarray(times, dtype=float) / width + 1e-9)
    masks = [index == k for k in np.unique(index)]
    gaps, _ = _compare_windows(np.asarray(closed), np.asarray(ref), masks, np.inf)
    return max(rel for _, rel in gaps)


def entry_samples(entry, n):
    """``n`` midpoint samples inside a stored entry's segment (knots carry
    the half-open convention, so the samples keep away from them) and
    the entry's polynomial there, evaluated in floats."""
    ts = entry.lo + (entry.hi - entry.lo) * (np.arange(n) + 0.5) / n
    return ts, np.polynomial.polynomial.polyval(ts, [float(c) for c in entry.coeffs])


def off_knot_samples(lo, hi, knots, n=97, margin=1e-3):
    ts = np.linspace(lo, hi, n)
    keep = np.min(np.abs(ts[:, None] - np.asarray(knots)[None, :]), axis=1) > margin
    return ts[keep]


def test_criterion_1_continuous_example_segment_displays():
    """Entries (1,1), (2,1), (2,2) on every segment of [-1, 3) and
    (1,2) on [-1, 1): closed form within 1e-9 (relative window gap) at 50
    samples per segment, in under a second."""
    t0 = time.perf_counter()
    x = solve_continuous(
        fixtures.example1_system(),
        fixtures.example1_history(),
        fixtures.example1_forcing(),
        3.0,
    )
    worst = 0.0
    checked = 0
    for entry in fixtures.EXAMPLE1_X_ENTRIES:
        if (entry.row, entry.col) == (0, 1) and entry.hi > 1.0:
            continue  # the contested column tail is criterion 2's job
        ts, want = entry_samples(entry, 50)
        err = window_gap(x.eval(ts)[:, entry.row, entry.col], want, ts, 1.0)
        assert err <= 1e-9, f"{entry.label('X')}: {err:.3e}"
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 14
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(
        f"criterion 1: PASS - 14 segment displays within 1e-9 "
        f"(worst {worst:.2e}, {elapsed * 1e3:.0f} ms)"
    )


def test_criterion_2_contested_column_against_the_integrator():
    """The adjudicated (1,2) entry on [1, 3) agrees with the exact
    integrator at 4096 rows per delay within 1e-10 (relative window gap),
    and the rejected hand-tabulated display misses the defining equation
    by at least 0.1 where the accepted one satisfies it exactly."""
    sys_ = fixtures.example1_system()
    hist = fixtures.example1_history()
    force = fixtures.example1_forcing()
    x = solve_continuous(sys_, hist, force, 3.0)
    oracle = integrate_continuous(
        sys_, hist, force, 3.0, IntegratorConfig(substeps_per_delay=4096)
    )
    mask = (oracle.times >= 1.0) & (oracle.times < 3.0)
    ts = oracle.times[mask]
    diff = window_gap(x.eval(ts)[:, 0, 1], oracle.values[mask][:, 0, 1], ts, 1.0)
    assert diff <= 1e-10, f"(1,2) on [1,3) vs integrator: {diff:.3e}"

    # adjudication of the fundamental solution's contested entry, in exact
    # arithmetic: the residual of Z' = A0 Z(t-1) + Z(t-1) A1 at t = 3/2 for
    # each candidate, with Z(1/2) from the stored entries on [0, 1)
    entry = next(
        e for e in fixtures.EXAMPLE1_Z_ENTRIES if (e.row, e.col, e.lo) == (0, 1, 1)
    )
    assert entry.provenance == fixtures.RECOMPUTED
    at = Fraction(3, 2)
    delayed = np.empty((2, 2), dtype=object)
    for e in fixtures.EXAMPLE1_Z_ENTRIES:
        if e.lo == 0:
            value = sum(c * (at - 1) ** j for j, c in enumerate(e.coeffs))
            delayed[e.row, e.col] = value
    frac = np.vectorize(Fraction, otypes=[object])
    rhs = (frac(sys_.a0) @ delayed + delayed @ frac(sys_.a1))[0, 1]

    def residual(coeffs):
        return abs(sum(j * c * at ** (j - 1) for j, c in enumerate(coeffs) if j) - rhs)

    rejected, accepted = residual(entry.superseded), residual(entry.coeffs)
    assert rejected >= Fraction(1, 10), f"rejected display residual only {rejected}"
    assert accepted == 0, f"accepted display residual {accepted}"
    report(
        f"criterion 2: PASS - contested column within {diff:.2e} of the "
        f"integrator; rejected display off by {rejected}, accepted by "
        f"{accepted}"
    )


def test_criterion_3_discrete_example_table():
    """Early rows of the discrete example reproduce the hand tabulation
    exactly; later rows match the literal stepper; the bundled report
    shows every rejected entry to differ from the stepper; the solve and
    the check in under 0.1 s, the best of three runs, so that one run
    slowed by other work on the host does not decide it."""
    elapsed = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sys_ = fixtures.example2_system()
        hist = fixtures.example2_history()
        force = fixtures.example2_forcing()
        x = solve_discrete(sys_, hist, force, 6)
        stepper = step_discrete(sys_, hist, force, 6)
        for entry in fixtures.EXAMPLE2_X_TABLE:
            if entry.u <= 2:
                np.testing.assert_array_equal(
                    x.at_time(entry.u), entry.matrix, err_msg=f"X({entry.u})"
                )
        late = x.times >= 3
        diff = window_gap(
            x.values[late], stepper.values[late], x.times[late], sys_.m + 1
        )
        assert diff <= 1e-9, f"X(3..6) vs stepper: {diff:.3e}"
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert elapsed < 0.1, f"took {elapsed:.3f}s at best"

    rep = fixtures.run_example2()
    assert rep.ok
    flagged = [line for line in rep.lines if line.label.startswith("rejected")]
    assert len(flagged) == 8, "adjudicated rows must be called out"
    report(
        f"criterion 3: PASS - rows -1..2 exact, 3..6 match the stepper, "
        f"{len(flagged)} rejected entries shown wrong ({elapsed * 1e3:.1f} ms)"
    )


def test_criterion_4_seeded_residual_sweep():
    """100 seeded systems with d in {2, 3, 4}: the fundamental solution
    satisfies its defining equation — continuous derivative residual at
    most 1e-8 off the knots over five delay windows, discrete difference
    residual at most 1e-9 through u = 5 (m + 1), both as relative window
    gaps against the right-hand side — in under 30 s."""
    t0 = time.perf_counter()
    worst_cont = worst_disc = 0.0
    for i in range(50):
        d = 2 + i % 3
        rng = np.random.default_rng(1000 + i)
        sys_ = random_system(rng, d, "continuous", entry_scale=1.0 / d)
        z = build_fundamental_continuous(sys_, 5.0)
        rate = differentiate(z)
        ts = off_knot_samples(-1.0, 5.0, z.breakpoints)
        delayed = z.eval(ts - 1.0)
        rhs = sys_.a0 @ delayed + delayed @ sys_.a1
        resid = window_gap(rate.eval(ts), rhs, ts, 1.0)
        assert resid <= 1e-8, f"continuous seed {i}: residual {resid:.3e}"
        worst_cont = max(worst_cont, resid)
    for i in range(50):
        d = 2 + i % 3
        rng = np.random.default_rng(2000 + i)
        sys_ = random_system(rng, d, "discrete", entry_scale=1.0 / d)
        fund = DiscreteFundamental(sys_)
        us = np.arange(5 * (sys_.m + 1) + 1)
        delayed = np.stack([fund.value(u - sys_.m) for u in us])
        rhs = sys_.a0 @ delayed + delayed @ sys_.a1
        step = np.stack([fund.value(u + 1) - fund.value(u) for u in us])
        resid = window_gap(step, rhs, us, sys_.m + 1)
        assert resid <= 1e-9, f"discrete seed {i}: {resid:.3e}"
        worst_disc = max(worst_disc, resid)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(
        f"criterion 4: PASS - 100 systems, worst defining-equation "
        f"residuals {worst_cont:.2e} (continuous) / {worst_disc:.2e} "
        f"(discrete) in {elapsed:.1f}s"
    )


def test_criterion_5_closed_form_versus_oracles():
    """25 commuting-data systems: the continuous closed form tracks the
    exact integrator within 1e-10 over five delay windows and the
    discrete closed form tracks the stepper within 1e-9 through u = 40,
    both as relative window gaps."""
    worst_cont = worst_disc = 0.0
    for i in range(13):
        d = 2 + i % 3
        rng = np.random.default_rng(3000 + i)
        sys_ = random_system(rng, d, "continuous", entry_scale=1.0 / d)
        hist = random_scalar_history(rng, sys_)
        force = random_scalar_forcing(rng, sys_, 5.0)
        x = solve_continuous(sys_, hist, force, 5.0)
        oracle = integrate_continuous(sys_, hist, force, 5.0)
        diff = window_gap(x.eval(oracle.times), oracle.values, oracle.times, 1.0)
        assert diff <= 1e-10, f"continuous seed {i}: {diff:.3e}"
        worst_cont = max(worst_cont, diff)
    for i in range(12):
        d = 2 + i % 3
        rng = np.random.default_rng(4000 + i)
        sys_ = random_system(rng, d, "discrete", entry_scale=0.08 / d)
        hist, force = random_discrete_scalar_data(rng, sys_, 40)
        x = solve_discrete(sys_, hist, force, 40)
        stepper = step_discrete(sys_, hist, force, 40)
        diff = window_gap(x.values, stepper.values, x.times, sys_.m + 1)
        assert diff <= 1e-9, f"discrete seed {i}: {diff:.3e}"
        worst_disc = max(worst_disc, diff)
    report(
        f"criterion 5: PASS - 25 systems, worst oracle gaps "
        f"{worst_cont:.2e} (continuous, tol 1e-10) / {worst_disc:.2e} "
        f"(discrete, tol 1e-9)"
    )


def test_criterion_6_commutative_reductions():
    """For commuting coefficient pairs the power-form evaluators match
    the general construction within 1e-10, and with a vanishing right
    coefficient the discrete closed form collapses to the binomial sum
    in powers of A0 exactly."""
    worst = 0.0
    for i in range(6):
        rng = np.random.default_rng(5000 + i)
        d = 2 + i % 3
        a0, a1 = random_commuting_polynomial_pair(rng, d)
        cont = DelaySystem(a0=a0, a1=a1, delay=1.0, kind="continuous")
        z = build_fundamental_continuous(cont, 4.0)
        for t in np.linspace(-1.5, 3.9, 23):
            direct = fundamental_commutative_continuous(cont, t)
            gap = max_abs(direct - z.eval(t))
            scale = max(1.0, max_abs(direct))
            assert gap <= 1e-10 * scale, f"pair {i}, t={t}: {gap:.3e}"
            worst = max(worst, gap / scale)
        disc = DelaySystem(a0=a0, a1=a1, delay=1 + i % 3, kind="discrete")
        fund = DiscreteFundamental(disc)
        for u in range(-2, 13):
            direct = fundamental_commutative_discrete(disc, u)
            gap = max_abs(direct - fund.value(u))
            scale = max(1.0, max_abs(direct))
            assert gap <= 1e-10 * scale, f"pair {i}, u={u}: {gap:.3e}"
            worst = max(worst, gap / scale)

    exact_checked = 0
    for i in range(4):
        rng = np.random.default_rng(5100 + i)
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        a0 = rng.integers(-2, 3, size=(d, d)).astype(float)
        sys_ = DelaySystem(a0=a0, a1=np.zeros((d, d)), delay=m, kind="discrete")
        fund = DiscreteFundamental(sys_)
        for u in range(1, 13):
            n = -(-u // (m + 1))
            expected = np.zeros((d, d))
            power = np.eye(d)
            for j in range(n + 1):
                expected += float(binomial(u - (j - 1) * m, j)) * power
                power = power @ a0
            np.testing.assert_array_equal(
                fund.value(u), expected, err_msg=f"pair {i}, u={u}"
            )
            exact_checked += 1
    report(
        f"criterion 6: PASS - commutative reductions within 1e-10 "
        f"(worst {worst:.2e}); vanishing-right-coefficient sum exact at "
        f"{exact_checked} indices"
    )


def test_criterion_7_structural_invariants():
    """Property battery: the float oracle matching its exact ``Fraction``
    run, the stepper walking the discrete fundamental solution, the
    integrator matching the continuous fundamental solution,
    superposition, and data reproduction."""
    # (a) the float oracle agrees with the same method of steps run on
    # Fraction object arrays (exact) within 16 eps of each window's size
    rng = np.random.default_rng(902)
    sys_ = random_system(rng, 3, "continuous", entry_scale=0.6)
    hist = random_scalar_history(rng, sys_)
    n = 32
    table = integrate_continuous(
        sys_, hist, None, 5.0, IntegratorConfig(substeps_per_delay=n)
    )
    frac = np.vectorize(Fraction, otypes=[object])
    knots, coeffs, left = oracle._data(hist.ppoly)
    pieces = oracle._window_pieces(
        frac(sys_.a0), frac(sys_.a1), Fraction(sys_.sigma),
        ([Fraction(b) for b in knots], [frac(c) for c in coeffs], frac(left)),
        None, 5,
    )
    exact = np.empty(table.values.shape, dtype=object)
    oracle._sample(pieces, frac(table.times), n, exact)
    exact = exact.astype(float)
    for k in range(6):
        rows = slice(k * n, (k + 1) * n + 1)
        gap = max_abs(table.values[rows] - exact[rows])
        assert gap <= 16 * np.finfo(float).eps * max_abs(exact[rows]), k

    # (b) identity history, no forcing: the stepper reproduces the
    # discrete fundamental solution (exactly for integer coefficients)
    for i in range(3):
        rng = np.random.default_rng(6000 + i)
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        sys_d = DelaySystem(
            a0=rng.integers(-2, 3, size=(d, d)).astype(float),
            a1=rng.integers(-2, 3, size=(d, d)).astype(float),
            delay=m,
            kind="discrete",
        )
        hist_d = HistorySpec.from_values(
            np.broadcast_to(np.eye(d), (m + 1, d, d)).copy()
        )
        table = step_discrete(sys_d, hist_d, None, 10)
        fund = DiscreteFundamental(sys_d)
        for u in range(-m, 11):
            np.testing.assert_array_equal(
                table.at_time(u), fund.value(u), err_msg=f"seed {i}, u={u}"
            )

    # (c) identity history, no forcing: the integrator tracks the
    # continuous fundamental solution within 1e-10 (relative window gap)
    # over five windows
    for i in range(2):
        rng = np.random.default_rng(6100 + i)
        d = 2 + i
        sys_c = random_system(rng, d, "continuous", entry_scale=1.0 / d)
        hist_c = HistorySpec.from_ppoly(
            PiecewiseMatrixPolynomial(
                [-1.0, 0.0],
                [np.eye(d)[None]],
                left_value=np.eye(d),
            )
        )
        z = build_fundamental_continuous(sys_c, 5.0)
        table = integrate_continuous(sys_c, hist_c, None, 5.0)
        diff = window_gap(z.eval(table.times), table.values, table.times, 1.0)
        assert diff <= 1e-10, f"seed {i}: {diff:.3e}"

    # (d) superposition and data reproduction, both families
    rng = np.random.default_rng(6200)
    sys_c = random_system(rng, 2, "continuous")
    hist_c = random_scalar_history(rng, sys_c)
    force_c = random_scalar_forcing(rng, sys_c, 3.0)
    zero_hist = HistorySpec.from_ppoly(
        PiecewiseMatrixPolynomial([-1.0, 0.0], [zero_poly(2)])
    )
    full = solve_continuous(sys_c, hist_c, force_c, 3.0)
    parts = (
        solve_continuous(sys_c, hist_c, None, 3.0),
        solve_continuous(sys_c, zero_hist, force_c, 3.0),
    )
    ts = np.linspace(-1.0, 2.999, 61)
    values = full.eval(ts)
    assert window_gap(parts[0].eval(ts) + parts[1].eval(ts), values, ts, 1.0) <= 1e-9
    ts_hist = np.linspace(-1.0, -1e-9, 40)
    reproduced = full.eval(ts_hist)
    assert window_gap(reproduced, hist_c.ppoly.eval(ts_hist), ts_hist, 1.0) <= 1e-12
    assert np.all(knot_jumps(full) <= 1e-9 * max(1.0, max_abs(values)))

    sys_d = random_system(rng, 2, "discrete", entry_scale=0.5)
    hist_d, force_d = random_discrete_scalar_data(rng, sys_d, 12)
    full_d = solve_discrete(sys_d, hist_d, force_d, 12)
    zero_d = HistorySpec.from_values(np.zeros((sys_d.m + 1, 2, 2)))
    parts_d = (
        solve_discrete(sys_d, hist_d, None, 12),
        solve_discrete(sys_d, zero_d, force_d, 12),
    )
    assert window_gap(parts_d[0].values + parts_d[1].values, full_d.values,
                      full_d.times, sys_d.m + 1) <= 1e-9
    np.testing.assert_array_equal(
        full_d.values[: sys_d.m + 1], hist_d.values
    )

    # (e) the continuous fundamental solution is continuous at every
    # interior knot
    for i in range(5):
        rng = np.random.default_rng(6300 + i)
        d = 2 + i % 3
        sys_z = random_system(rng, d, "continuous", entry_scale=1.0 / d)
        z = build_fundamental_continuous(sys_z, 5.0)
        scale = max(1.0, float(np.max(np.abs(z.eval(np.linspace(-1.0, 4.99, 120))))))
        jumps = knot_jumps(z)
        assert jumps.size and np.all(jumps <= 1e-10 * scale), f"seed {i}"

    # (f) Pascal's rule, including negative upper indices
    for n in range(-6, 9):
        for k in range(1, 9):
            assert binomial(n + 1, k) - binomial(n, k) == binomial(n, k - 1)
        assert binomial(n + 1, 0) == binomial(n, 0) == 1

    # (g) the naive doubly indexed family vanishes except on its
    # diagonal, where it reproduces the stored coefficient table
    for i in range(4):
        rng = np.random.default_rng(6400 + i)
        d = 2 + i % 2
        a0 = rng.standard_normal((d, d))
        a1 = rng.standard_normal((d, d))
        depth = 6
        q = build_q_table(a0, a1, depth)
        zero = np.zeros((d, d))
        table = {(0, l): zero for l in range(depth + 2)}
        table[(1, 0)] = np.eye(d)
        for l in range(1, depth + 2):
            prev = table[(0, l - 1)]
            table[(1, l)] = a0 @ prev + prev @ a1
        for s in range(1, depth + 1):
            for l in range(depth + 2):
                prev = table[(s, l - 1)] if l else zero
                table[(s + 1, l)] = a0 @ prev + prev @ a1
        for (s, l), mat in table.items():
            if s == 0:
                np.testing.assert_array_equal(mat, zero)
            elif l == s - 1:
                np.testing.assert_array_equal(mat, q[s - 1], err_msg=f"{s},{l}")
            else:
                np.testing.assert_array_equal(mat, zero, err_msg=f"{s},{l}")
    report(
        "criterion 7: PASS - exact-run agreement, fundamental-solution "
        "reproduction, superposition, data reproduction, knot "
        "continuity, the binomial recurrence, and off-diagonal "
        "vanishing of the doubly indexed family all hold"
    )
