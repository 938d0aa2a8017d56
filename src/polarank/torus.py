"""Exact rank of a point-flat incidence matrix as a sum over torus weights.

The diagonal torus T = {t_a = diag(a_1..a_m, a_m^-1..a_1^-1)} of Sp(2m, q)
has order (q-1)^m, prime to p, and its characters
chi_alpha(t_a) = prod a_i^alpha_i, alpha in (Z/(q-1))^m, take their values
in GF(q).  The row space of the incidence matrix is a T-stable space of
functions on points, so by Maschke's theorem it is the direct sum of its
weight spaces, and

    rank = sum over alpha of rank M_alpha,
    M_alpha[L, O] = sum over s in T with s x_O in L of chi_alpha(s),

with L one flat per T-orbit and x_O one point per T-orbit: the weight-alpha
part is spanned by the projections of the orbit representatives, and a
function of weight alpha is fixed by its values at the x_O.  The sum splits
over the points y of L in the orbit of x_O.  Each contributes chi_alpha(s_y)
for one s_y with s_y x_O = y, times the character sum over the stabilizer
of x_O, which is |Stab| (a unit mod p) when chi_alpha is trivial there and
0 otherwise.  The rank of a 0/1 matrix over GF(q) is its rank over GF(p).

The route: flats and their points come from `incidence.build_incidence`;
point orbits from an arithmetic normal form; flat orbits from label
propagation along the m generators of T; the character sums are keyed
sums (`linalg.keyed_sum`: integer digit sums, since codes add digit-wise
mod p); the ranks come from one stacked GF(q) elimination per chunk of
characters.  Characters of odd sum give 0, since -I in T fixes every
point.  rank M_alpha is constant on the orbits of the signed permutations
of alpha (the Weyl group, which normalizes T in Sp) and of alpha -> p alpha
(the Frobenius), so one character per class is solved and its rank counted
class-size times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import incidence, linalg
from .errors import InvariantError
from .geometry import SymplecticSpace, enumerate_points
from .gf import FieldSpec
from .reports import Timer

# cells of the M_alpha stacked into one elimination: bounds its temporaries
CHUNK_CELLS = 1 << 17
# flat x point entries handled at once: bounds the temporaries of the
# flat-orbit hashes and of the terms
CHUNK_ENTRIES = 1 << 13

# the kind of a pair (x_i, y_i) of a point
ZERO, X_ONLY, Y_ONLY, BOTH = range(4)


def _discrete_log(field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) for a primitive zeta: exp[k] = zeta^k, log[exp[k]] = k, log[0] = 0."""
    q, pow_t = field.q, field.np_tables()[4]
    # zeta generates GF(q)^*: none of its powers 1..q-2 is 1
    zeta = 1 + int(np.argmin((pow_t[1:, 1 : q - 1] == 1).any(axis=1)))
    exp = pow_t[zeta, : q - 1]
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    return exp, log


def _point_orbits(space: SymplecticSpace, pts: np.ndarray, log: np.ndarray):
    """Orbit of every point, the pair kinds of each orbit, and exponents e
    with t_(zeta^e) x_O = y for each point y of orbit O.

    A scalar lam and t_a move pair i to (1, c_i), c_i = lam^2 x_i y_i, if
    x_i != 0, to (0, 1) if only y_i != 0, and leave a zero pair.  lam makes
    the first nonzero c_j 1 or zeta, by the square class of x_j y_j.  The
    kinds and the c_i are the normal form x_O.
    """
    m, q1 = space.m, space.q - 1
    x, y = pts[:, :m], pts[:, ::-1][:, :m]  # pair i is (x_i, y_i)
    lx, ly = log[x], log[y]
    kind = np.where(x != 0, np.where(y != 0, BOTH, X_ONLY), np.where(y != 0, Y_ONLY, ZERO))
    both = kind == BOTH
    lw = (lx + ly)[np.arange(len(pts)), np.argmax(both, axis=1)]  # log x_j y_j
    llam = np.where(both.any(axis=1), (lw % 2 - lw) % q1 // 2, 0)[:, None]
    digit = np.where(both, 3 + (2 * llam + lx + ly) % q1, kind)
    key = digit @ (space.q + 2) ** np.arange(m, dtype=np.int64)
    _, first, orbit = np.unique(key, return_index=True, return_inverse=True)
    exps = np.where(x != 0, llam + lx, np.where(y != 0, -(llam + ly), 0)) % q1
    return orbit, kind[first], exps


def _trivial_on_stabilizers(kinds: np.ndarray, alphas: np.ndarray, q1: int) -> np.ndarray:
    """(C, orbits): is chi_alpha trivial on the stabilizer of each x_O?

    The stabilizer is the t_a with a_i = mu on pairs (1, c), 1/mu on (0, 1)
    and a_i free on zero pairs, where mu = +-1 once some c_i != 0.
    """
    a, k = alphas[:, None, :], kinds[None]
    free_ok = ~((k == ZERO) & (a % q1 != 0)).any(axis=2)
    d = np.where((k == X_ONLY) | (k == BOTH), a, 0).sum(axis=2)
    d -= np.where(k == Y_ONLY, a, 0).sum(axis=2)
    return free_ok & (d % np.where((k == BOTH).any(axis=2), 2, q1) == 0)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer: a fixed, well-spread 64-bit word per index."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _flat_orbits(space: SymplecticSpace, rows: np.ndarray, pts: np.ndarray, zeta: int):
    """The least flat index in the T-orbit of every flat.

    A flat is known by a 64-bit hash of its point set, the sum of one fixed
    pseudorandom word per point.  The hashes of distinct flats are checked
    to differ, and the images of all flats under a generator t_i
    (a_i = zeta) are checked to have the same hashes, so matching them by
    sorting is exact.  Labels then propagate along the generators until
    they are constant on orbits.
    """
    q, n = space.q, space.dim
    mul_t, inv_t = space.field.np_tables()[1], space.field.np_tables()[3]
    step = max(1, CHUNK_ENTRIES // rows.shape[1])

    def hashes(words):
        out = np.empty(len(rows), dtype=np.uint64)
        for lo in range(0, len(rows), step):
            out[lo : lo + step] = words[rows[lo : lo + step]].sum(axis=1, dtype=np.uint64)
        return out

    words = _mix64(np.arange(len(pts), dtype=np.uint64))
    # only equality of hashes matters, so they sort as int64, like every other key
    own = hashes(words).view(np.int64)
    order = np.argsort(own, kind="stable")
    ranked = own[order]
    if (ranked[1:] == ranked[:-1]).any():
        raise InvariantError("two flats share a point-set hash")
    images = []
    for i in range(space.m):
        moved = pts.copy()
        moved[:, i] = mul_t[zeta, moved[:, i]]
        moved[:, n - 1 - i] = mul_t[inv_t[zeta], moved[:, n - 1 - i]]
        lead = np.argmax(moved != 0, axis=1)
        moved = mul_t[inv_t[moved[np.arange(len(moved)), lead]][:, None], moved]
        # the hash of t_i L sums the words of the images of L's points
        image = hashes(words[incidence.point_columns(q, moved, lead)]).view(np.int64)
        # t_i permutes the flats, so the image hashes sort to the same sequence
        at = np.argsort(image, kind="stable")
        if not np.array_equal(image[at], ranked):
            raise InvariantError("a torus image of a flat is not a flat")
        image_of = np.empty_like(order)
        image_of[at] = order  # t_i moves flat at[j] to flat order[j]
        images.append(image_of)
    label = np.arange(len(rows))
    while True:
        new = label
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


@dataclass
class WeightProblem:
    """The orbit data every M_alpha is built from.

    The terms are the (flat representative, point) pairs; each adds
    chi_alpha(s_y) to its cell (flat orbit, point orbit) of M_alpha.
    """

    field: FieldSpec
    flat_orbits: int
    point_orbits: int
    kinds: np.ndarray  # (point_orbits, m) pair kinds of each x_O
    cells: np.ndarray  # (terms,) flat orbit * point_orbits + point orbit
    units: np.ndarray  # (m, terms) the a_i of s_y = t_a for each term's point y


def weight_problem(space: SymplecticSpace, r: int, timings: dict | None = None) -> WeightProblem:
    """The orbits and terms of the point vs r-flat incidence of the space.

    With `timings`, the seconds spent on the incidence build and on the
    orbits go into its "build_s" and "orbit_s".
    """
    timings = {} if timings is None else timings
    timer = Timer()
    mat = incidence.build_incidence(space, r)
    timings["build_s"] = timer.elapsed()
    timer = Timer()
    rows = mat.indices.reshape(mat.rows, -1)  # every flat has the same number of points
    del mat
    exp, log = _discrete_log(space.field)
    pts = enumerate_points(space)
    orbit, kinds, exps = _point_orbits(space, pts, log)
    label = _flat_orbits(space, rows, pts, int(exp[1]))
    reps = np.flatnonzero(label == np.arange(len(rows)))
    k = rows.shape[1]
    cells = np.empty(len(reps) * k, dtype=np.intp)
    units = np.empty((space.m, len(cells)), dtype=space.field.dtype)
    step = max(1, CHUNK_ENTRIES // k)
    for lo in range(0, len(reps), step):
        points = rows[reps[lo : lo + step]]
        at = slice(lo * k, lo * k + points.size)
        cells[at] = (np.arange(lo, lo + len(points))[:, None] * len(kinds) + orbit[points]).ravel()
        units[:, at] = exp[exps[points.ravel()].T]
    timings["orbit_s"] = timer.elapsed()
    return WeightProblem(space.field, len(reps), len(kinds), kinds, cells, units)


def character_ranks(problem: WeightProblem, alphas, timings: dict | None = None) -> np.ndarray:
    """rank over GF(q) of M_alpha for each row alpha of a (C, m) array.

    With `timings`, the seconds spent on the character sums and on the
    eliminations are added to its "character_s" and "rank_s".
    """
    fld = problem.field
    mul_t, pow_t = fld.np_tables()[1], fld.np_tables()[4]
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, len(problem.units))
    shape = (problem.flat_orbits, problem.point_orbits)
    ranks = np.zeros(len(alphas), dtype=np.int64)
    character_s = rank_s = 0.0
    step = max(1, CHUNK_CELLS // (shape[0] * shape[1]))
    for lo in range(0, len(alphas), step):
        timer = Timer()
        chunk = alphas[lo : lo + step]
        mats = np.zeros((len(chunk), shape[0] * shape[1]), dtype=fld.dtype)
        for alpha, mat in zip(chunk.tolist(), mats):
            # chi_alpha(s_y) = prod of a_i^alpha_i, added into its cell
            values = pow_t[problem.units[0], alpha[0]]
            for unit, a in zip(problem.units[1:], alpha[1:]):
                values = mul_t[values, pow_t[unit, a]]
            mat[:] = linalg.keyed_sum(fld, problem.cells, values, len(mat))
        mats = mats.reshape(len(chunk), *shape)
        mats *= _trivial_on_stabilizers(problem.kinds, chunk, fld.q - 1)[:, None, :]
        character_s += timer.elapsed()
        timer = Timer()
        ranks[lo : lo + step] = linalg.rref_stack(fld, mats)[2]
        rank_s += timer.elapsed()
    if timings is not None:
        timings["character_s"] = round(timings.get("character_s", 0.0) + character_s, 6)
        timings["rank_s"] = round(timings.get("rank_s", 0.0) + rank_s, 6)
    return ranks


def weight_classes(m: int, p: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """One character alpha of even sum per class, and the class sizes.

    The classes are the orbits of (Z/(q-1))^m under coordinate permutations,
    sign flips and alpha -> p alpha.  A class is represented by the least,
    in lexicographic order, of the sorted vectors min(b_i, -b_i) over its
    Frobenius images b = p^j alpha.
    """
    q1 = p**t - 1
    alphas = np.indices((q1,) * m).reshape(m, -1).T
    weight = q1 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    canon = None
    for _ in range(t):
        code = np.sort(np.minimum(alphas, -alphas % q1), axis=1) @ weight
        canon = code if canon is None else np.minimum(canon, code)
        alphas = alphas * p % q1
    codes, sizes = np.unique(canon, return_counts=True)
    reps = codes[:, None] // weight % q1
    even = reps.sum(axis=1) % 2 == 0
    return reps[even], sizes[even]


@dataclass
class TorusRank:
    """The rank by the torus-weight route, with what it took."""

    rank: int
    torus_order: int
    point_orbits: int
    flat_orbits: int
    classes: list  # {"alpha", "class_size", "rank"} per solved class
    timings: dict

    def oracle_block(self) -> dict:
        return {
            "route": "torus-weight",
            "torus_order": self.torus_order,
            "point_orbits": self.point_orbits,
            "flat_orbits": self.flat_orbits,
            "classes": self.classes,
        }


def torus_rank(space: SymplecticSpace, r: int) -> TorusRank:
    """The GF(p) rank of the point vs r-flat incidence matrix of the space."""
    fld = space.field
    timings = {}
    problem = weight_problem(space, r, timings)
    reps, sizes = weight_classes(space.m, fld.p, fld.t)
    ranks = character_ranks(problem, reps, timings)
    classes = [
        {"alpha": a, "class_size": s, "rank": k}
        for a, s, k in zip(reps.tolist(), sizes.tolist(), ranks.tolist())
    ]
    return TorusRank(
        int(sizes @ ranks), (fld.q - 1) ** space.m, problem.point_orbits,
        problem.flat_orbits, classes, timings,
    )
