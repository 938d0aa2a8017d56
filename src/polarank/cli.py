"""Command-line interface.

Subcommands: verify, table, export, rank, formula, dmatrix, posets,
lab verify-lemmas.  `verify` checks the formula against the torus-weight
oracle (`torus`); `rank <file>` runs the dense GF(p) kernel (`ranks`).
Exit codes: 0 success (and, for verify, formula/oracle match); 2 a
scientific mismatch between formula and oracle; 1 operational errors,
usage errors included.  A mismatch never masquerades as an operational
failure.

Each command imports the modules it uses when it runs.  `formula`, `table`,
`dmatrix` and `posets` are pure integer arithmetic (`dimensions`, `posets`)
and never import numpy; `verify`, `export`, `rank` and `lab` import it when
they run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import dimensions
from .errors import InvariantError, PolarankError, RangeError, ResourceCapExceeded
from .reports import RankReport, Timer, field_descriptor, library_version

DEFAULT_CELL_CAP = 500_000_000  # admits the q = 27 job at ~4.2e8 cells
BASIS_BYTE_CAP = 500_000_000  # bytes the dense kernel may hold for `rank <file>`

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_MISMATCH = 2


def _check_context(m: int, p: int, t: int) -> None:
    """W(2m-1, p^t) needs an odd prime p, m >= 2 and t >= 1."""
    dimensions.require_odd_prime(p)
    if m < 2:
        raise RangeError("m >= 2")
    if t < 1:
        raise RangeError("t >= 1")


@dataclass
class VerifyJob:
    m: int
    p: int
    t: int
    r: int
    max_cells: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        _check_context(self.m, self.p, self.t)
        if not 1 <= self.r <= 2 * self.m - 1:
            raise RangeError(f"r={self.r} outside [1, {2 * self.m - 1}]")

    def check_cap(self):
        """Refuse an incidence matrix of more than max_cells flat x point cells."""
        from . import geometry

        q = self.p**self.t
        r_eff = self.r if self.r <= self.m else 2 * self.m - self.r
        cells = geometry.isotropic_count(self.m, r_eff, q) * geometry.point_count(self.m, q)
        if cells > self.max_cells:
            raise ResourceCapExceeded(
                f"{cells} matrix cells exceed the cap {self.max_cells}; "
                "raise it with --max-cells"
            )


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's 4300-digit int-to-str limit: exact ranks have no length bound.

    Only the CLI's own documents are written under it; reading a matrix file
    keeps the limit, so an over-long token there stays a FormatError.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(doc, out_path, fmt: str = "json") -> None:
    """Write a document as JSON or as a CSV rank table; a string goes out as is."""
    with _any_int_digits():
        if isinstance(doc, str):
            text = doc
        elif fmt == "json":
            text = json.dumps(doc, indent=2, sort_keys=True)
        else:
            text = _table_csv(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _table_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"p={c['p']}" for c in doc["columns"]])
    for i, t in enumerate(doc["t_values"]):
        writer.writerow([t] + [c["ranks"][i] for c in doc["columns"]])
    return buf.getvalue().rstrip("\n")


def _space(job: VerifyJob):
    """The job's W(2m-1, p^t), over a GF(p^t) built here."""
    from . import geometry
    from .gf import build_field

    return geometry.SymplecticSpace(job.m, build_field(job.p, job.t))


def cmd_verify(job: VerifyJob) -> tuple[dict, int]:
    """The formula against the torus-weight oracle."""
    from . import torus

    report = RankReport(job.m, job.p, job.t, job.r)
    timer = Timer()
    report.formula_rank = dimensions.rank_point_flat(job.m, job.p, job.t, job.r)
    report.timings["formula_s"] = timer.elapsed()
    job.check_cap()
    oracle = torus.torus_rank(_space(job), job.r)
    report.oracle_rank = oracle.rank
    report.timings.update(oracle.timings)
    doc = report.finalize().to_json()
    doc["field"] = field_descriptor(job.p, job.t)
    doc["oracle"] = oracle.oracle_block()
    return doc, EXIT_OK if report.match else EXIT_MISMATCH


def cmd_table(m: int, p_list, t_max: int) -> dict:
    if t_max < 1:
        raise RangeError(f"--t-max {t_max}: the table needs t_max >= 1")
    t_values = list(range(1, t_max + 1))
    columns = []
    if m == 2:
        columns.append(
            {"p": 2, "ranks": [dimensions.rank_W3_char2(t) for t in t_values]}
        )
    for p in p_list:
        columns.append(
            {
                "p": p,
                "ranks": [dimensions.rank_point_flat(m, p, t, m) for t in t_values],
            }
        )
    return {
        "report": "rank-table",
        "m": m,
        "t_values": t_values,
        "columns": columns,
        "version": library_version(),
    }


def cmd_export(job: VerifyJob, path: str, fmt: str = "v1") -> dict:
    from . import incidence

    job.check_cap()
    mat = incidence.build_incidence(_space(job), job.r)
    if fmt == "mm":
        incidence.write_matrix_market(mat, path)
    else:
        incidence.write_matrix(mat, path)
    sums_r = sorted(set(mat.row_sums().tolist()))
    sums_c = sorted(set(mat.col_sums().tolist()))
    if len(sums_r) != 1 or len(sums_c) != 1:
        raise InvariantError(
            f"incidence is not a configuration: row sums {sums_r}, "
            f"column sums {sums_c}"
        )
    return {
        "report": "export-metadata",
        "m": job.m,
        "p": job.p,
        "t": job.t,
        "r": job.r,
        "rows": mat.rows,
        "cols": mat.cols,
        "row_sum": sums_r[0],
        "col_sum": sums_c[0],
        "nnz": mat.nnz(),
        "format": fmt,
        "path": path,
        "sha256": incidence.file_checksum(path),
        "version": library_version(),
        "field": field_descriptor(job.p, job.t),
    }


def cmd_rank(path: str) -> dict:
    import numpy as np

    from . import incidence, ranks

    mat = incidence.read_matrix(path)
    # the kernel eliminates the orientation with min(rows, cols) columns: a basis
    # of at most min(rows, cols)^2 lanes, plus 8 bytes of CSR pointer for each
    # of its max(rows, cols) rows; its screen of dependent rows adds a fixed
    # ranks.SCREEN_BYTES (512 KiB) that does not grow with the file, so the cap
    # leaves it out
    lane = np.dtype(ranks.lane_dtype(mat.modulus)).itemsize
    nbytes = min(mat.rows, mat.cols) ** 2 * lane + 8 * max(mat.rows, mat.cols)
    if nbytes > BASIS_BYTE_CAP:
        raise ResourceCapExceeded(
            f"{nbytes} bytes of kernel basis and row pointers exceed the cap {BASIS_BYTE_CAP}"
        )
    acc = ranks.eliminate(mat)
    return {
        "report": "matrix-rank",
        "rows": mat.rows,
        "cols": mat.cols,
        "modulus": mat.modulus,
        "rank": acc.rank,
        "kernel": {
            "transposed": acc.transposed,
            "lane_bytes": lane,
            "basis_bytes": acc.rank * acc.cols * lane,
            "rows_seen": acc.rows_seen,
            "rows_independent": acc.rank,
        },
    }


def cmd_formula(m: int, p: int, t: int, r: int, all_t: int | None = None) -> dict:
    report = RankReport(m, p, t, r, mode="formula-only")
    report.formula_rank = dimensions.rank_point_flat(m, p, t, r)
    if all_t is not None:
        if all_t < 1:
            raise RangeError(f"--all-t {all_t}: list t = 1..N needs N >= 1")
        all_ranks = [dimensions.rank_point_flat(m, p, tt, r) for tt in range(1, all_t + 1)]
        with _any_int_digits():
            report.notes.append("ranks for t=1..%d: %s" % (all_t, all_ranks))
    return report.finalize().to_json()


def cmd_dmatrix(m: int, p: int) -> dict:
    d = dimensions.build_D_matrix(m, p)
    return {
        "report": "transfer-matrix",
        "m": m,
        "p": p,
        "entries": [list(row) for row in d.entries],
        "trace": d.trace(),
        "det": d.det(),
        "version": library_version(),
    }


def cmd_posets(m: int, p: int, t: int, d: int = 0, dot: str | None = None):
    """H, H[d] and S[d] as a document, or with dot = 'h' or 's' the DOT
    source of that poset's Hasse diagram."""
    from . import posets

    _check_context(m, p, t)
    if dot:
        return posets.hasse_dot(m, p, t, d, dot)
    h = posets.enumerate_H(m, p, t)
    hd = posets.enumerate_H_d(m, p, t, d)
    s = posets.enumerate_S(m, p, t, d)
    return {
        "report": "posets",
        "m": m,
        "p": p,
        "t": t,
        "d": d,
        "H": [list(x.s) for x in h],
        "H_d": [list(x.s) for x in hd],
        "S": [{"s": list(a.s), "eps": sorted(a.eps)} for a in s],
        "version": library_version(),
    }


def cmd_lab_verify(m: int, p: int, t: int) -> tuple[dict, int]:
    from . import labchecks

    doc = labchecks.verify_lemmas(m, p, t)
    return doc, EXIT_OK if doc["passed"] else EXIT_MISMATCH


def _add_common(sub, *flags):
    if "m" in flags:
        sub.add_argument("--m", type=int, required=True, help="half-dimension, m >= 2")
    if "p" in flags:
        sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    if "t" in flags:
        sub.add_argument("--t", type=int, required=True, help="field degree, q = p^t")
    if "r" in flags:
        sub.add_argument("--r", type=int, required=True, help="flat dimension, 1..2m-1")
    sub.add_argument("--out", default=None, help="write the report to this path")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting 2, the code of a mismatch."""

    def error(self, message):
        raise PolarankError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polarank",
        description="Exact p-ranks of point-flat incidence in W(2m-1, p^t): "
        "geometry oracle vs representation-theoretic formulas.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp_verify = sub.add_parser("verify", help="cross-validate formula against the torus-weight oracle")
    _add_common(sp_verify, "m", "p", "t", "r")
    sp_verify.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP, help="cell cap of the matrix build")

    sp_table = sub.add_parser("table", help="formula rank table over p and t")
    sp_table.add_argument("--m", type=int, required=True)
    sp_table.add_argument("--p", type=int, nargs="+", required=True, help="odd primes")
    sp_table.add_argument("--t-max", type=int, required=True)
    sp_table.add_argument("--format", choices=["json", "csv"], default="json")
    sp_table.add_argument("--out", default=None)

    sp_export = sub.add_parser("export", help="write an incidence matrix file plus metadata")
    _add_common(sp_export, "m", "p", "t", "r")
    sp_export.add_argument("--matrix-out", required=True, help="matrix file destination")
    sp_export.add_argument("--format", choices=["v1", "mm"], default="v1")
    sp_export.add_argument("--max-cells", type=int, default=DEFAULT_CELL_CAP, help="cell cap of the matrix build")

    sp_rank = sub.add_parser("rank", help="rank of a matrix file over its modulus")
    sp_rank.add_argument("matrixfile")
    sp_rank.add_argument("--out", default=None)

    sp_formula = sub.add_parser("formula", help="formula rank only (no matrix build)")
    _add_common(sp_formula, "m", "p", "t", "r")
    sp_formula.add_argument("--all-t", type=int, default=None, help="also list t=1..N")

    sp_dm = sub.add_parser("dmatrix", help="the exact m x m transfer matrix")
    sp_dm.add_argument("--m", type=int, required=True)
    sp_dm.add_argument("--p", type=int, required=True)
    sp_dm.add_argument("--out", default=None)

    sp_po = sub.add_parser("posets", help="dump H, H[d], S as JSON or a DOT Hasse diagram")
    sp_po.add_argument("--m", type=int, required=True)
    sp_po.add_argument("--p", type=int, required=True)
    sp_po.add_argument("--t", type=int, required=True)
    sp_po.add_argument("--d", type=int, default=0)
    sp_po.add_argument("--dot", choices=["h", "s"], default=None, help="emit DOT for this poset instead of JSON")
    sp_po.add_argument("--out", default=None)

    sp_lab = sub.add_parser("lab", help="function-space laboratory")
    lab_sub = sp_lab.add_subparsers(dest="lab_command", required=True)
    sp_lemmas = lab_sub.add_parser("verify-lemmas", help="run the operator-identity suites")
    sp_lemmas.add_argument("--m", type=int, required=True)
    sp_lemmas.add_argument("--p", type=int, required=True)
    sp_lemmas.add_argument("--t", type=int, required=True)
    sp_lemmas.add_argument("--out", default=None)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, fmt = EXIT_OK, "json"
        if args.command == "verify":
            job = VerifyJob(args.m, args.p, args.t, args.r, args.max_cells)
            doc, code = cmd_verify(job)
        elif args.command == "table":
            doc, fmt = cmd_table(args.m, args.p, args.t_max), args.format
        elif args.command == "export":
            job = VerifyJob(args.m, args.p, args.t, args.r, args.max_cells)
            doc = cmd_export(job, args.matrix_out, args.format)
        elif args.command == "rank":
            doc = cmd_rank(args.matrixfile)
        elif args.command == "formula":
            doc = cmd_formula(args.m, args.p, args.t, args.r, args.all_t)
        elif args.command == "dmatrix":
            doc = cmd_dmatrix(args.m, args.p)
        elif args.command == "posets":
            doc = cmd_posets(args.m, args.p, args.t, args.d, args.dot)
        elif args.command == "lab":
            doc, code = cmd_lab_verify(args.m, args.p, args.t)
        _emit(doc, args.out, fmt)
        return code
    except PolarankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
