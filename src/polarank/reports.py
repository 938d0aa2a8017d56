"""Report dataclasses emitted by the CLI, plus schema validation helpers.

Every JSON document the CLI prints carries a "report" discriminator and
validates against schemas/report.schema.json, which ships with the package.
Reports embed the library version so results can be audited later; the
documents of jobs that build GF(p^t) (verify, export) also carry its modulus.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


def library_version() -> str:
    from . import __version__

    return __version__


def field_descriptor(p: int, t: int) -> dict:
    from .gf import build_field

    return {"p": p, "t": t, "modulus": list(build_field(p, t).modulus)}


@dataclass
class RankReport:
    """One (m, p, t, r) rank computation: the formula side, or both sides."""

    m: int
    p: int
    t: int
    r: int
    formula_rank: int | None = None
    oracle_rank: int | None = None
    match: bool | None = None
    mode: str = "cross-validate"
    notes: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r > self.m:
            self.notes.append(
                "coisotropic flats (r > m): perps of the totally isotropic (2m-r)-flats"
            )

    def finalize(self) -> "RankReport":
        if self.formula_rank is not None and self.oracle_rank is not None:
            self.match = self.formula_rank == self.oracle_rank
        return self

    def to_json(self) -> dict:
        doc = {"report": "rank-verification", "version": library_version()}
        doc.update(asdict(self))
        return doc


@dataclass
class Timer:
    started: float = field(default_factory=time.perf_counter)

    def elapsed(self) -> float:
        return round(time.perf_counter() - self.started, 6)


def load_schema() -> dict:
    from importlib import resources  # only schema validation needs it

    with resources.files("polarank.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def validate_report(doc: dict) -> None:
    """Raise jsonschema.ValidationError if the document is off-contract."""
    import jsonschema

    jsonschema.validate(doc, load_schema())
