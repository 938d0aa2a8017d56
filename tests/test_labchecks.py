"""The lab's batched monomial sweeps against their per-monomial definitions.

The operators are deliberately broken, so that both sides produce
counterexample records; the batched checks must give the same verdicts,
counts and records, in the same order, as one `PlaneOperator.apply` per
monomial.
"""

import itertools

import numpy as np
import pytest

from polarank import funcspace as fs
from polarank import labchecks as lc
from polarank.gf import build_field


# a fresh space per test: a broken operator would stay in the space's caches


@pytest.fixture
def sp9():
    return fs.FunctionSpace(2, build_field(3, 2))


@pytest.fixture
def sp25():
    return fs.FunctionSpace(2, build_field(5, 2))


def sample(space, seed=0):
    monos, _ = lc._monomial_sample(space, seed=seed)
    return [tuple(e) for e in monos.tolist()]


def reference_shift_failures(space, ells):
    failures = []
    for ell in ells:
        for j in range(space.t):
            op = fs.shift_operator(space, ell, j)
            for exps in sample(space):
                got = op.apply(fs.FunctionOnV(space, {exps: 1}))
                want = fs.shift_predicted(space, ell, j, exps)
                if got != want or not all(c < space.p for c in got.coeffs.values()):
                    failures.append({"exps": list(exps), "ell": ell, "j": j,
                                     "got": sorted(got.coeffs.items())})
    return failures


def reference_projector_failures(space):
    q = space.q
    interior, escaped = [], []
    for j, alpha, beta in itertools.product(range(space.t), range(space.p), range(space.p)):
        op = fs.digit_projector(space, alpha, beta, j)
        for exps in sample(space):
            f = fs.FunctionOnV(space, {exps: 1})
            got = op.apply(f)
            selects = fs.digit_projector_selects(space, alpha, beta, j, exps)
            want = f if selects else fs.FunctionOnV.zero(space)
            if exps[0] == q - 1 or exps[-1] == q - 1:
                if got != want and any(e[1:-1] != exps[1:-1] for e in got.coeffs):
                    escaped.append({"exps": list(exps), "alpha": alpha, "beta": beta, "j": j})
            elif got != want or op.apply(got) != got:
                interior.append({"exps": list(exps), "alpha": alpha, "beta": beta, "j": j,
                                 "got": sorted(got.coeffs.items())})
    return interior, escaped


def records(result):
    return result["failures"], result["counterexamples"]


class MiddleMover:
    """A plane operator followed by x_2 -> x_2 raised one exponent (mod q):
    it moves a middle exponent, which no PlaneOperator can."""

    def __init__(self, op):
        self.op, self.space = op, op.space

    def _move(self, exps):
        return (exps[0], (exps[1] + 1) % self.space.q) + tuple(exps[2:])

    def apply(self, f):
        out = self.op.apply(f).coeffs
        return fs.FunctionOnV(self.space, {self._move(e): c for e, c in out.items()})

    def apply_batch(self, exps):
        src, images, codes = self.op.apply_batch(exps)
        images = images.copy()
        images[:, 1] = (images[:, 1] + 1) % self.space.q
        return src, images, codes


@pytest.mark.parametrize("space_name", ["sp9", "sp25"])
def test_shift_sweep_records_match_per_monomial(space_name, request, monkeypatch):
    space = request.getfixturevalue(space_name)
    # the mirror operator in place of g_ell(j): most monomials fail
    monkeypatch.setattr(fs, "shift_operator", fs.shift_mirror)
    want = reference_shift_failures(space, range(1, space.p))
    result = lc.shift_lemma_check(space)
    assert want and result["failures"] == len(want)
    assert result["counterexamples"] == want[:5]
    assert result["cases"] == len(sample(space)) * (space.p - 1) * space.t


@pytest.mark.parametrize("break_with", ["swapped", "middle"])
def test_projector_sweep_records_match_per_monomial(sp25, break_with, monkeypatch):
    build = fs.digit_projector
    for a, b, j in itertools.product(range(sp25.p), range(sp25.p), range(sp25.t)):
        build(sp25, a, b, j)  # cached on the space before the recursion could see a broken one
    if break_with == "swapped":
        monkeypatch.setattr(fs, "digit_projector", lambda sp, a, b, j: build(sp, b, a, j))
    else:
        monkeypatch.setattr(fs, "digit_projector", lambda sp, a, b, j: MiddleMover(build(sp, a, b, j)))
    interior, escaped = reference_projector_failures(sp25)
    got_interior, got_boundary = lc.digit_projector_check(sp25)
    assert interior
    assert records(got_interior) == (len(interior), interior[:5])
    assert records(got_boundary) == (len(escaped), escaped[:5])
    assert bool(escaped) == (break_with == "middle")


def test_orthogonality_records_match_per_monomial(sp9, monkeypatch):
    build = fs.digit_projector
    # one projector replaced by the identity: its composites stop annihilating
    monkeypatch.setattr(
        fs, "digit_projector",
        lambda sp, a, b, j: fs.PlaneOperator.identity(sp) if (a, b) == (0, 1) else build(sp, a, b, j),
    )
    p, q = sp9.p, sp9.q
    want = []
    for (a1, b1), (a2, b2) in itertools.combinations(itertools.product(range(p), repeat=2), 2):
        if {(a1, b1), (p - 1 - b1, p - 1 - a1)} & {(a2, b2), (p - 1 - b2, p - 1 - a2)}:
            continue
        comp = fs.digit_projector(sp9, a1, b1, 0) * fs.digit_projector(sp9, a2, b2, 0)
        for ax, bx in itertools.product(range(q - 1), repeat=2):
            if not comp.apply(fs.FunctionOnV.monomial(sp9, (ax, 0, 0, bx))).is_zero():
                want.append({"pairs": [[a1, b1], [a2, b2]], "exps": [ax, bx]})
    result = lc.projector_orthogonality_check(sp9)
    assert want and records(result) == (len(want), want[:5])


def test_unbroken_sweeps_pass(sp9):
    assert lc.shift_lemma_check(sp9)["passed"]
    interior, boundary = lc.digit_projector_check(sp9)
    assert interior["passed"] and boundary["passed"]
    assert np.array_equal(lc._monomial_sample(sp9)[0], np.array(list(sp9.monomials())))
