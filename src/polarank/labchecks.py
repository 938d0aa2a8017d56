"""Machine checks of the operator identities on k[V].

Each check returns {"name", "cases", "failures", "passed", "counterexamples",
"notes"}; `verify_lemmas` bundles them into the CLI's lab ledger.  Exhaustive
enumeration is used whenever q^(2m) <= 6561, otherwise seeded sampling.

The monomial sweeps hold their sample as one (N, 2m) exponent array and
apply each plane operator to all of it in one batched pass
(`PlaneOperator.apply_batch`).  The images are compared with the closed
forms (`shift_predicted_terms`, `digit_projector_selects`) as arrays, and
counterexample records are built only for the rows that fail.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import dimensions, funcspace as fs, linalg
from .errors import RangeError
from .gf import build_field
from .posets import h_type_from_lambda

EXHAUSTIVE_LIMIT = 6561


def _result(name, cases, failures, notes=None):
    return {
        "name": name,
        "cases": cases,
        "failures": len(failures),
        "passed": not failures,
        "counterexamples": failures[:5],
        "notes": notes or [],
    }


def _monomial_sample(space, limit=EXHAUSTIVE_LIMIT, seed=0, count=500):
    """(N, 2m) exponent array in lexicographic order, and whether it is all monomials."""
    n = space.nvars
    if space.q**n <= limit:
        return np.indices((space.q,) * n, dtype=space.field.dtype).reshape(n, -1).T, True
    rng = random.Random(seed)
    out = {
        tuple(rng.randrange(space.q) for _ in range(n))
        for _ in range(count)
    }
    return np.array(sorted(out), dtype=space.field.dtype), False


def _image_items(src, images, codes, row) -> list:
    """The image of sample row `row` as sorted (exponent tuple, code) pairs."""
    lo, hi = np.searchsorted(src, [row, row + 1])
    return sorted(zip(map(tuple, images[lo:hi].tolist()), codes[lo:hi].tolist()))


def _equals_one_term(n, batch, hit, want_exps, want_codes) -> np.ndarray:
    """Per sample row: is its image exactly codes z^exps where `hit`, else zero?"""
    src, images, codes = batch
    count = np.bincount(src, minlength=n)
    single = np.flatnonzero(hit & (count == 1))
    at = np.searchsorted(src, single)  # a row's terms are distinct, so one term decides
    same = np.zeros(n, dtype=bool)
    same[single] = (images[at] == want_exps[single]).all(axis=1) & (codes[at] == want_codes[single])
    return np.where(hit, same, count == 0)


def shift_lemma_check(space, seed=0) -> dict:
    """Closed-form shift action vs the defining sum over the nonzero field.

    Each operator is applied to the whole sample in one batched pass; a
    row fails when its image differs from the closed form or has a
    coefficient outside the prime field.
    """
    monos, exhaustive = _monomial_sample(space, seed=seed)
    notes = [] if exhaustive else [f"sampled {len(monos)} monomials (seed {seed})"]
    ells = range(1, space.p)
    if space.t == 1:
        # at t = 1 the ell = p-1 character is trivial and the defining sum
        # picks up an extra term; the closed form is a t > 1 statement
        ells = range(1, space.p - 1)
        notes.append("t=1: ell = p-1 excluded (closed form assumes t > 1)")
    failures = []
    cases = 0
    n = len(monos)
    for ell in ells:
        for j in range(space.t):
            batch = fs.shift_operator(space, ell, j).apply_batch(monos)
            src, _, codes = batch
            cases += n
            ok = _equals_one_term(n, batch, *fs.shift_predicted_terms(space, ell, j, monos))
            ok &= np.bincount(src[codes >= space.p], minlength=n) == 0
            for row in np.flatnonzero(~ok).tolist():
                failures.append(
                    {"exps": monos[row].tolist(), "ell": ell, "j": j,
                     "got": _image_items(*batch, row)}
                )
    return _result("shift-operator-closed-form", cases, failures, notes)


def digit_projector_check(space, seed=0) -> list:
    """Selection and idempotence of the digit projectors, in two verdicts.

    The recursive construction provably selects correctly on every monomial
    whose x_1 and y_1 exponents are below q-1 -- including all digit-carry
    inputs.  On the top-exponent boundary the defining character sums cannot
    tell exponent 0 from exponent q-1 apart, the construction mis-selects,
    and for the corner digit classes no element of the algebra generated by
    the (x_1, y_1)-plane transvections can fix it (exact computation).  The
    first check asserts the provable statement; the second asserts that the
    defect stays confined to that boundary.

    Each projector is applied to the whole sample in one batched pass.  A
    monomial it returns unchanged is returned unchanged again, so on every
    row where selection holds, idempotence holds with it.
    """
    if space.t == 1:
        return [
            _result(
                "digit-projector-selection", 0, [],
                ["t=1 skipped: the projector identities are a t > 1 statement"],
            )
        ]
    monos, exhaustive = _monomial_sample(space, seed=seed)
    q, n = space.q, len(monos)
    notes = [] if exhaustive else [f"sampled {len(monos)} monomials (seed {seed})"]
    notes.append("interior = x_1 and y_1 exponents below q-1")
    on_boundary = (monos[:, 0] == q - 1) | (monos[:, -1] == q - 1)
    ones = np.ones(n, dtype=space.field.dtype)
    interior_failures = []
    escaped_boundary = []
    interior_cases = int((~on_boundary).sum()) * space.t * space.p**2
    boundary_cases = int(on_boundary.sum()) * space.t * space.p**2
    for j in range(space.t):
        for alpha in range(space.p):
            for beta in range(space.p):
                batch = fs.digit_projector(space, alpha, beta, j).apply_batch(monos)
                src, images = batch[:2]
                selects = fs.digit_projector_selects(space, alpha, beta, j, monos)
                wrong = ~_equals_one_term(n, batch, selects, monos, ones)
                # any mis-selection on the boundary must keep all its output
                # monomials in the same middle exponents
                escaped = np.zeros(n, dtype=bool)
                escaped[src[(images[:, 1:-1] != monos[src, 1:-1]).any(axis=1)]] = True
                for row in np.flatnonzero(wrong & on_boundary & escaped).tolist():
                    escaped_boundary.append(
                        {"exps": monos[row].tolist(), "alpha": alpha, "beta": beta, "j": j}
                    )
                for row in np.flatnonzero(wrong & ~on_boundary).tolist():
                    interior_failures.append(
                        {"exps": monos[row].tolist(), "alpha": alpha, "beta": beta, "j": j,
                         "got": _image_items(*batch, row)}
                    )
    return [
        _result(
            "digit-projector-selection-interior", interior_cases,
            interior_failures, notes,
        ),
        _result(
            "digit-projector-boundary-confinement", boundary_cases,
            escaped_boundary,
            ["top-exponent inputs: selection as claimed is not achievable in "
             "the transvection-plane algebra; defect is confined there"],
        ),
    ]


def projector_orthogonality_check(space) -> dict:
    """Composites of projectors with disjoint selection sets annihilate
    (away from the top-exponent boundary)."""
    if space.t == 1:
        return _result("digit-projector-orthogonality", 0, [], ["t=1 skipped"])
    p = space.p

    def sel_set(a, b):
        return frozenset({(a, b), (p - 1 - b, p - 1 - a)})

    # x_1^ax y_1^bx for ax, bx below q-1, in lexicographic order
    plane = np.indices((space.q - 1,) * 2).reshape(2, -1).T
    monos = np.zeros((len(plane), space.nvars), dtype=space.field.dtype)
    monos[:, 0], monos[:, -1] = plane[:, 0], plane[:, 1]
    pairs = [(a, b) for a in range(p) for b in range(p)]
    failures = []
    cases = 0
    for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
        if sel_set(a1, b1) & sel_set(a2, b2):
            continue
        comp = fs.digit_projector(space, a1, b1, 0) * fs.digit_projector(space, a2, b2, 0)
        cases += len(monos)
        for row in np.flatnonzero(np.bincount(comp.apply_batch(monos)[0], minlength=len(monos))).tolist():
            failures.append({"pairs": [[a1, b1], [a2, b2]], "exps": plane[row].tolist()})
    return _result("digit-projector-orthogonality", cases, failures)


def tau_check(m, p) -> dict:
    """tau is an involution and its eigenspace dimensions match (d +- p^m)/2."""
    failures = []
    monos = fs.middle_monomials(m, p)
    for alpha, beta in monos:
        once = fs.tau(m, p, {(alpha, beta): 1})
        twice = fs.tau(m, p, once)
        if twice != {(alpha, beta): 1}:
            failures.append({"alpha": list(alpha), "beta": list(beta)})
    dims = fs.tau_eigenspace_dims(m, p)
    want = dimensions.dim_S_plus_minus(m, p)
    if dims != want:
        failures.append({"eigendims": list(dims), "expected": list(want)})
    return _result("tau-involution-and-split", len(monos) + 1, failures)


def basis_span_check(space, lam_list=None) -> dict:
    """Per type: symplectic basis count, independence, and signature split.

    Each type's basis matrix is built at once (`symplectic_basis_matrix`)
    and ranked as the sum of its diagonal blocks.
    """
    m, p, t = space.m, space.p, space.t
    hi = 2 * m * (p - 1)
    table = dimensions.dimension_table(m, p)
    plus, minus = dimensions.dim_S_plus_minus(m, p)
    if lam_list is None:
        lam_list = list(itertools.product(range(hi + 1), repeat=t))
    failures = []
    for lam in lam_list:
        keys, blocks = fs.symplectic_basis_matrix(space, lam)
        expect = 1
        for l in lam:
            expect *= table[l]
        ok = blocks.shape[1] == expect
        if ok and expect:
            ok = not (blocks.entries[2] >= p).any() and len(keys) == expect and blocks.rank(space.field) == expect
        if ok:
            h = h_type_from_lambda(fs.type_of_lambda(space, lam))
            counts = fs.signed_counts(space, lam)
            copies = expect // table[m * (p - 1)]
            for j in h.j_set():
                if (counts[j], expect - counts[j]) != (plus * copies, minus * copies):
                    ok = False
        if not ok:
            failures.append({"lam": list(lam)})
    return _result("symplectic-basis-span", len(lam_list), failures)


def action_check(space, trials=100, seed=0) -> dict:
    """act(g*h, f) = act(g, act(h, f)) and pointwise action correctness.

    Transvection directions are taken with at most two nonzero coordinates
    (they already generate the group); full-support directions are exercised
    on low-degree functions to keep the symbolic expansion bounded.
    """
    rng = random.Random(seed)
    failures = []
    cases = 0

    def random_transvection(support=2):
        while True:
            v = [0] * space.nvars
            for i in rng.sample(range(space.nvars), rng.choice([1, support])):
                v[i] = rng.randrange(1, space.q)
            if any(v):
                return fs.symplectic_transvection(space, tuple(v), rng.randrange(1, space.q))

    def random_function(k=4, emax=None):
        emax = space.q - 1 if emax is None else emax
        coeffs = {}
        for _ in range(k):
            e = tuple(rng.randrange(emax + 1) for _ in range(space.nvars))
            coeffs[e] = rng.randrange(1, space.q)
        return fs.FunctionOnV(space, coeffs)

    exhaustive = space.q ** space.nvars <= EXHAUSTIVE_LIMIT
    vectors = space.all_vectors() if exhaustive else None
    # a vector's index in the lexicographic order is its base-q value
    place = space.q ** np.arange(space.nvars - 1, -1, -1, dtype=np.int64)
    for trial in range(trials):
        dense = trial % 5 == 4
        if dense:
            vfull = tuple(rng.randrange(1, space.q) for _ in range(space.nvars))
            g = fs.symplectic_transvection(space, vfull, rng.randrange(1, space.q))
            f = random_function(2, emax=min(4, space.q - 1))
        else:
            g = random_transvection()
            f = random_function()
        h = random_transvection()
        cases += 1
        if fs.act(g * h, f) != fs.act(g, fs.act(h, f)):
            failures.append({"kind": "multiplicativity"})
        if exhaustive:
            cases += 1
            lhs = fs.act(g, f).evaluate_all()
            transformed = linalg.matmul(space.field, vectors, g.matrix)
            if not np.array_equal(lhs, f.evaluate_all()[transformed @ place]):
                failures.append({"kind": "pointwise"})
    return _result("group-action", cases, failures)


def sp_invariance_check(space) -> dict:
    """Submodule stability at desk scale: supports stay inside each ideal."""
    from .posets import SignedHType, signed_leq

    if (space.m, space.p, space.t) != (2, 3, 1):
        raise RangeError("desk-scale invariance check is pinned to (2, 3, 1)")
    base = []
    n = space.nvars
    for i in range(n):
        vec = [0] * n
        vec[i] = 1
        base.append(tuple(vec))
    base += [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0)]
    gens = [fs.symplectic_transvection(space, v, 1) for v in base]
    top = SignedHType(
        h_type_from_lambda(fs.type_of_lambda(space, (4,))), frozenset({0})
    )
    members = [
        b
        for lam in [(2,), (4,)]
        for b in fs.symplectic_basis(space, lam)
        if signed_leq(b.stype, top)
    ]
    failures = []
    cases = 0
    for g in gens:
        for b in members:
            cases += 1
            image = fs.act(g, b.expand())
            for _, sbf in fs.expand_in_symplectic_basis(image):
                if not signed_leq(sbf.stype, b.stype):
                    failures.append(
                        {"basis_type": [list(b.stype.s), sorted(b.stype.eps)],
                         "found": [list(sbf.stype.s), sorted(sbf.stype.eps)]}
                    )
                    break
    return _result("signed-ideal-invariance", cases, failures)


def verify_lemmas(m: int, p: int, t: int) -> dict:
    """The CLI lab ledger: shift, projector, tau, basis, action suites."""
    space = fs.FunctionSpace(m, build_field(p, t))
    checks = [
        shift_lemma_check(space),
        *digit_projector_check(space),
        projector_orthogonality_check(space),
        tau_check(m, p),
        action_check(space, trials=25),
    ]
    if (m, p, t) == (2, 3, 1):
        checks.append(sp_invariance_check(space))
    if space.q ** space.nvars <= EXHAUSTIVE_LIMIT:
        checks.append(basis_span_check(space))
    return {
        "report": "lab-ledger",
        "m": m,
        "p": p,
        "t": t,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
