"""One benchmark process: a set-up step or one CLI job, in a fresh interpreter.

    python3 child.py setup --out RESULT [--prefix M P T R ROWS FILE]
    python3 child.py job --out RESULT [--trace] -- <polarank argv ...>

`setup` times the cold `import polarank.cli` and, with --prefix, writes the
first ROWS point-vs-r-flat incidence rows of W(2M-1, P^T), in canonical flat
order, through the public API.  `job` imports the CLI, optionally installs
the tracer, and calls `polarank.cli.main(argv)` in-process with its stdout
captured.  Either way the result is one JSON file written at exit, so the
parent never parses the program's own output stream.

The tracer wraps public names from outside the program.  It keeps spans in
memory and writes per-name aggregates at exit; a name that is missing is
reported as absent rather than failing the job, so the argv surface of
`polarank.cli.main` is the only contract the benchmark relies on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import resource
import sys
import time

clock = time.perf_counter

# the suites `labchecks.verify_lemmas` runs; a renamed one reads absent
LAB_SUITES = ("shift_lemma_check", "digit_projector_check", "projector_orthogonality_check",
              "tau_check", "action_check", "basis_span_check")


class Tracer:
    """Spans and counts around calls into the program's layers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.absent = []
        self.bases = {}  # id(kernel object) -> (rank, cols, lane bytes)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`; hooks run outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, module_name, attr, name=None, before=None, after=None, everywhere=False):
        """Replace `module.attr` (or `module.Class.method`) by a traced wrapper.

        With `everywhere`, every loaded polarank module that bound the same
        object by `from ... import` gets the wrapper too.
        """
        name = name or f"{module_name.split('.')[-1]}.{attr.split('.')[-1]}"
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapped = self.wrap(name, original, before, after)
        setattr(owner, leaf, wrapped)
        if everywhere:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("polarank") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def install(self):
        self.patch("polarank.cli", "main")
        self.patch("polarank.gf", "build_field", everywhere=True)
        self._install_kernel()
        self._install_oracle()
        self._install_formula()
        self._install_lab()

    def _install_kernel(self):
        import numpy as np

        self.patch("polarank.ranks", "rank_mod_p")

        def before_insert(args):
            acc, row = args[0], args[1]
            try:
                at_pivots = np.asarray(row)[list(acc.pivot_cols)] % acc.p
            except (AttributeError, IndexError, TypeError):
                self.absent.append("ranks.pivot_reductions")
                return
            self.count("ranks.pivot_reductions", int(np.count_nonzero(at_pivots)))

        def after_insert(args, grew):
            acc = args[0]
            self.count("ranks.rows_seen")
            self.count("ranks.rows_independent", int(bool(grew)))
            try:
                self.bases[id(acc)] = (acc.rank, acc.cols, np.dtype(acc.dtype).itemsize)
            except (AttributeError, TypeError):
                self.absent.append("ranks.basis_bytes")

        self.patch("polarank.ranks", "DenseRowPacked.insert", name="ranks.insert",
                   before=before_insert, after=after_insert)

    def _install_oracle(self):
        def flats_after(args, flats):
            # nested enumerations (isotropic inside coisotropic) are not
            # flats of the job, so only outermost calls count
            if not any(self.spans[i][0].startswith("geometry.enumerate") for i in self.stack):
                self.count("geometry.flats", len(flats))

        self.patch("polarank.geometry", "enumerate_isotropic", after=flats_after)
        self.patch("polarank.geometry", "enumerate_coisotropic", after=flats_after)
        self.patch("polarank.geometry", "perp")
        self.patch("polarank.incidence", "incidence_from_flats",
                   after=lambda args, mat: self.count("incidence.nnz", mat.nnz()))
        self.patch("polarank.incidence", "write_matrix",
                   after=lambda args, _: self.count("incidence.bytes_written", os.path.getsize(args[1])))
        self.patch("polarank.incidence", "read_matrix")
        self.patch("polarank.incidence", "file_checksum")

    def _install_formula(self):
        self.patch("polarank.dimensions", "rank_point_flat")
        self.patch("polarank.dimensions", "dimension_table")
        self.patch("polarank.dimensions", "build_D_matrix")
        # wrapped where the formula engine looks them up, so that nested
        # calls inside the posets module are not counted twice
        self.patch("polarank.dimensions", "ideal_below",
                   after=lambda args, out: self.count("dimensions.ideal_elements", len(out)))
        self.patch("polarank.dimensions", "signed_ideal_below",
                   after=lambda args, out: self.count("dimensions.signed_ideal_elements", len(out)))

    def _install_lab(self):
        def cases_after(args, result):
            for suite in result if isinstance(result, list) else [result]:
                self.count("labchecks.cases", int(suite.get("cases", 0)))

        for suite in LAB_SUITES:
            self.patch("polarank.labchecks", suite, after=cases_after)

    def summary(self) -> dict:
        """Per-name calls, total and self seconds; insert durations; counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = {}
        inserts = []
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
            if name == "ranks.insert":
                inserts.append(end - start)
        basis = max((r * c * b for r, c, b in self.bases.values()), default=0)
        lane = max((b for _, _, b in self.bases.values()), default=0)
        return {
            "names": names,
            "insert_s": inserts,
            "counts": self.counts,
            "basis_bytes": basis,
            "lane_bytes": lane,
            "absent": sorted(set(self.absent)),
        }


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(out_path, argv, trace):
    started = clock()
    import polarank.cli as cli

    import_s = clock() - started
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    doc = {"exit": code, "stdout": captured.getvalue(), "import_s": import_s,
           "maxrss_kb": _maxrss_kb()}
    if tracer is not None:
        doc["trace"] = tracer.summary()
    _write(out_path, doc)
    return 0


def run_setup(out_path, prefix):
    started = clock()
    import polarank.cli  # noqa: F401  (the cold import is what is timed)

    import_s = clock() - started
    import numpy
    import polarank

    doc = {"import_s": import_s, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "polarank_file": polarank.__file__}
    if prefix:
        m, p, t, r, rows = (int(x) for x in prefix[:5])
        space = polarank.SymplecticSpace(m, polarank.build_field(p, t))
        if r <= m:
            flats = polarank.enumerate_isotropic(space, r)
        else:
            flats = polarank.enumerate_coisotropic(space, r)
        mat = polarank.incidence_from_flats(space, flats[:rows])
        polarank.write_matrix(mat, prefix[5])
        doc["rows"], doc["cols"] = mat.rows, mat.cols
    doc["maxrss_kb"] = _maxrss_kb()
    _write(out_path, doc)
    return 0


def main(args):
    split = args.index("--") if "--" in args else len(args)
    command, opts, argv = args[0], args[1:split], args[split + 1:]
    out_path = opts[opts.index("--out") + 1]
    if command == "job":
        return run_job(out_path, argv, "--trace" in opts)
    prefix = opts[opts.index("--prefix") + 1:][:6] if "--prefix" in opts else None
    return run_setup(out_path, prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
