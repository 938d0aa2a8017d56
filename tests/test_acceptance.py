"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
criterion 4 (the q = 27 case) is gated behind the `nightly` marker.
"""

import random
import time

import pytest

from polarank import funcspace as fs
from polarank import labchecks
from polarank.dimensions import (
    build_D_matrix,
    count_digit_tuples,
    dim_S_lambda,
    dim_S_plus_minus,
    dimension_table,
    rank_W3_char2,
    rank_W3_closed_form,
    rank_point_flat,
)
from polarank.gf import build_field
from polarank.geometry import (
    SymplecticSpace,
    enumerate_all_subspaces,
    enumerate_isotropic,
)
from polarank.incidence import build_incidence, incidence_from_flats
from polarank.ranks import rank_mod_p


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def timed_oracle(m, p, t, r):
    start = time.perf_counter()
    space = SymplecticSpace(m, build_field(p, t))
    mat = build_incidence(space, r)
    rank = rank_mod_p(mat)
    return rank, mat, time.perf_counter() - start


def test_criterion_1_w33_lines():
    formula = rank_W3_closed_form(3, 1)
    oracle, mat, elapsed = timed_oracle(2, 3, 1, 2)
    ok = formula == oracle == 25 and (mat.rows, mat.cols) == (40, 40) and elapsed < 1.0
    report(1, ok, f"W(3,3) formula {formula} oracle {oracle} in {elapsed:.3f}s")


def test_criterion_2_w39_lines():
    formula = rank_W3_closed_form(3, 2)
    oracle, mat, elapsed = timed_oracle(2, 3, 2, 2)
    ok = formula == oracle == 425 and (mat.rows, mat.cols) == (820, 820) and elapsed < 10.0
    report(2, ok, f"W(3,9) formula {formula} oracle {oracle} in {elapsed:.3f}s")


def test_criterion_3_w53_planes():
    d = build_D_matrix(3, 3)
    formula = 1 + d.trace_power(1)
    oracle, mat, elapsed = timed_oracle(3, 3, 1, 3)
    ok = (
        formula == oracle == 196 == rank_point_flat(3, 3, 1, 3)
        and (mat.rows, mat.cols) == (1120, 364)
        and elapsed < 30.0
    )
    report(3, ok, f"W(5,3) formula {formula} oracle {oracle} in {elapsed:.3f}s")


@pytest.mark.nightly
def test_criterion_4_w327_lines_streaming():
    formula = rank_W3_closed_form(3, 3)
    start = time.perf_counter()
    space = SymplecticSpace(2, build_field(3, 3))
    mat = build_incidence(space, 2)
    assert (mat.rows, mat.cols) == (20440, 20440)
    oracle = rank_mod_p(mat)  # square, so no transpose: rank x 20440 byte lanes
    elapsed = time.perf_counter() - start
    ok = formula == oracle == 8353
    report(4, ok, f"W(3,27) formula {formula} streaming oracle {oracle} in {elapsed:.0f}s")


def test_criterion_5_summation_equals_trace_power(ideal_sum_rank):
    cases = [
        (m, p, t, r)
        for m in (2, 3)
        for p in (3, 5, 7)
        for t in range(1, 7)
        for r in range(1, 2 * m)
    ]
    bad = [c for c in cases if rank_point_flat(*c) != ideal_sum_rank(*c)]
    report(
        5,
        not bad,
        f"1+Trace(A_r^t) vs signed/unsigned ideal sums, {len(cases)} cases, mismatches: {bad}",
    )


def test_criterion_6_char2_comparison():
    vals = [rank_W3_char2(t) for t in (1, 2)]
    # rank_W3_char2 internally asserts the odd-form route agrees for each t
    for t in range(3, 11):
        rank_W3_char2(t)
    ok = vals == [10, 50]
    report(6, ok, f"2-rank recurrence gives {vals} for t=1,2; routes agree to t=10")


def test_criterion_7_code_equality_w53(w53_space):
    formula = rank_point_flat(3, 3, 1, 2)
    iso = incidence_from_flats(w53_space, enumerate_isotropic(w53_space, 2))
    allsub = incidence_from_flats(w53_space, enumerate_all_subspaces(w53_space, 2))
    r_iso, r_all = rank_mod_p(iso), rank_mod_p(allsub)
    ok = (
        r_iso == r_all == formula == 343
        and (iso.rows, iso.cols) == (3640, 364)
        and allsub.rows == 11011
    )
    report(
        7, ok,
        f"isotropic-plane rank {r_iso} ({iso.rows}x{iso.cols}) vs all-plane rank "
        f"{r_all} ({allsub.rows}x{allsub.cols}), formula {formula}",
    )


def test_criterion_8_perp_flats(w33_space):
    formula = rank_point_flat(2, 3, 1, 3)
    mat = build_incidence(w33_space, 3)
    oracle = rank_mod_p(mat)
    d_table = dimension_table(2, 3)
    ok = formula == oracle == 11 == 1 + d_table[2] and (mat.rows, mat.cols) == (40, 40)
    report(8, ok, f"perp flats (m,p,t,r)=(2,3,1,3): formula {formula} oracle {oracle}")


def test_criterion_9_shift_suite():
    space9 = fs.FunctionSpace(2, build_field(3, 2))
    res9 = labchecks.shift_lemma_check(space9)
    space25 = fs.FunctionSpace(2, build_field(5, 2))
    rng = random.Random(17)
    monos = [tuple(rng.randrange(25) for _ in range(4)) for _ in range(500)]
    fails25 = 0
    for ell in range(1, 5):
        for j in (0, 1):
            op = fs.shift_operator(space25, ell, j)
            for exps in monos:
                got = op.apply(fs.FunctionOnV(space25, {exps: 1}))
                if got != fs.shift_predicted(space25, ell, j, exps):
                    fails25 += 1
    ok = res9["passed"] and res9["cases"] == 6561 * 4 and fails25 == 0
    report(
        9, ok,
        f"shift closed form: q=9 exhaustive {res9['cases']} cases "
        f"({res9['failures']} failures), (5,2) sampled 4000 cases ({fails25} failures)",
    )


def test_criterion_10_projector_suite_verified_domain():
    """Selection + idempotence wherever the construction provably works.

    Exhaustive over all 6561 monomials per operator; the assertion domain is
    every monomial with x_1, y_1 exponents below q-1, which includes all
    digit-carry inputs; the companion check pins the top-exponent defect to
    that boundary.  Orthogonality of disjoint projectors is included.
    """
    space = fs.FunctionSpace(2, build_field(3, 2))
    interior, confinement = labchecks.digit_projector_check(space)
    orth = labchecks.projector_orthogonality_check(space)
    # 18 operators x 5184 interior monomials (of 6561; 1377 touch the boundary)
    ok = (
        interior["passed"]
        and confinement["passed"]
        and orth["passed"]
        and interior["cases"] == 18 * 5184
        and confinement["cases"] == 18 * 1377
    )
    report(
        10, ok,
        f"digit projectors: interior selection+idempotence {interior['cases']} cases "
        f"({interior['failures']} failures), boundary confinement "
        f"{confinement['cases']} cases, orthogonality {orth['cases']} cases",
    )


@pytest.mark.xfail(
    strict=True,
    reason="top-exponent boundary: the recursive construction provably "
    "mis-selects on monomials with x_1 or y_1 exponent q-1, and for the "
    "digit classes containing a pair with both entries in {0, p-1} no "
    "element of the transvection-plane algebra satisfies the claim "
    "(exact 81x81-block computation); see the decisions ledger",
)
def test_criterion_10_projector_suite_as_stated_full_domain():
    """The literal full-domain selection claim, kept as an expected failure."""
    space = fs.FunctionSpace(2, build_field(3, 2))
    failures = 0
    for j in (0, 1):
        for alpha in range(3):
            for beta in range(3):
                op = fs.digit_projector(space, alpha, beta, j)
                for exps in space.monomials():
                    f = fs.FunctionOnV(space, {exps: 1})
                    got = op.apply(f)
                    want = (
                        f
                        if fs.digit_projector_selects(space, alpha, beta, j, exps)
                        else fs.FunctionOnV.zero(space)
                    )
                    if got != want:
                        failures += 1
    print(
        f"ACCEPTANCE 10*: FAIL - full-domain selection as stated: {failures} "
        "boundary mis-selections (expected; see decisions ledger)"
    )
    assert failures == 0


def test_criterion_11_tau_and_split_suite():
    tau_res = labchecks.tau_check(2, 3)
    space = fs.FunctionSpace(2, build_field(3, 2))
    span_res = labchecks.basis_span_check(space)
    dims = fs.tau_eigenspace_dims(2, 3)
    ok = (
        tau_res["passed"]
        and span_res["passed"]
        and dims == (14, 5) == dim_S_plus_minus(2, 3)
    )
    report(
        11, ok,
        f"tau involution + eigendims {dims}; basis span/signature over "
        f"{span_res['cases']} types ({span_res['failures']} failures)",
    )


def test_criterion_12_dimension_tables():
    bad = []
    for m in (2, 3):
        for p in (2, 3, 5, 7):
            hi = 2 * m * (p - 1)
            table = dimension_table(m, p)  # construction asserts formula == count
            if not (table[0] == table[hi] == 1):
                bad.append((m, p, "ends"))
            if any(table[i] != table[hi - i] for i in range(hi + 1)):
                bad.append((m, p, "symmetry"))
            if sum(table.d) != p ** (2 * m):
                bad.append((m, p, "total"))
            if any(
                dim_S_lambda(m, p, lam) != count_digit_tuples(m, p, lam)
                for lam in range(hi + 1)
            ):
                bad.append((m, p, "formula-vs-count"))
    report(12, not bad, f"dimension tables m<=3, p<=7: {bad or 'all invariants hold'}")
