"""Cuspidal-edge normal-form jets: data model, validation, files, sampling.

A jet is the coefficient record of the local normal form

    f(u, v) = (u,
               a20/2 u^2 + a30/6 u^3 + v^2/2,
               b20/2 u^2 + b30/6 u^3 + b12/2 u v^2 + b03/6 v^3) + h(u, v)

with b03 != 0 and b20 >= 0, where the remainder h collects the optional
higher-order terms h1..h5.  The six named coefficients are geometric
invariants of the edge (singular curvature, limiting normal curvature,
cuspidal curvature, cusp-directional torsion and their companions).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import invariants
from .errors import (
    JetFormatError,
    NegativeLimitingNormalCurvature,
    NonFinite,
    SamplingExhausted,
    ZeroCuspidalCurvature,
)

COEFF_KEYS = ("a20", "a30", "b20", "b30", "b12", "b03")
HIGHER_KEYS = ("h1", "h2", "h3", "h4", "h5")
ZERO_TOL = 1e-12             # |b03| at or below this is a zero cuspidal curvature
HIGHER_DEGREE_CAP = 3        # degree cap of the higher-order terms h1..h5
_SAMPLER_CAP = 10_000


@dataclass(frozen=True)
class HigherTerms:
    """Truncated-polynomial remainder h of the normal form.

    h1, h2, h3, h4 are univariate in u (coefficients ascending in degree,
    capped); h5 is bivariate in (u, v) as (i, j, c) monomial triples.  Empty
    tuples mean h == 0.
    """

    h1: tuple = ()
    h2: tuple = ()
    h3: tuple = ()
    h4: tuple = ()
    h5: tuple = ()

    def is_zero(self) -> bool:
        return not (self.h1 or self.h2 or self.h3 or self.h4 or self.h5)


@dataclass(frozen=True, eq=False)
class EdgeJet:
    """Validated normal-form coefficients of a cuspidal edge.

    Jets compare and hash by their values and by the type of each
    coefficient.  0 == Fraction(0) == 0.0, but the polynomials memoized per
    jet are written in its coefficient type, so an exact jet and an equal
    float jet must not share a memo entry.
    """

    a20: float
    a30: float
    b20: float
    b30: float
    b12: float
    b03: float
    higher: HigherTerms = field(default_factory=HigherTerms)

    @cached_property
    def _key(self):
        coeffs = (self.a20, self.a30, self.b20, self.b30, self.b12, self.b03)
        h = self.higher
        types = tuple(map(type, (*coeffs, *h.h1, *h.h2, *h.h3, *h.h4,
                                 *(c for _, _, c in h.h5))))
        return coeffs, h, types

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON true/false are ints to Python,
    and float() would also take a JSON string)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_float(name, value) -> float:
    if not _is_number(value):
        raise JetFormatError(f"coefficient {name} is not a number: {value!r}")
    try:
        out = float(value)
    except OverflowError:        # an integer too large for a float
        out = math.inf
    if not math.isfinite(out):
        raise NonFinite(f"coefficient {name} is not a finite number: {value!r}")
    return out


def _parse_univariate(name, raw):
    if not isinstance(raw, (list, tuple)):
        raise JetFormatError(f"{name} must be an array of ascending coefficients")
    if len(raw) > HIGHER_DEGREE_CAP + 1:
        raise JetFormatError(
            f"{name} exceeds the degree cap {HIGHER_DEGREE_CAP} "
            f"(got {len(raw)} coefficients)"
        )
    coeffs = tuple(_finite_float(f"{name}[{k}]", c) for k, c in enumerate(raw))
    while coeffs and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


def _exponent(name, k):
    try:
        if _is_number(k) and int(k) == k and k >= 0:
            return int(k)
    except (ValueError, OverflowError):
        pass
    raise JetFormatError(f"{name} exponents must be nonnegative integers")


def _parse_bivariate(name, raw):
    if not isinstance(raw, (list, tuple)):
        raise JetFormatError(f"{name} must be an array of [i, j, c] monomial triples")
    out, seen = [], set()
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise JetFormatError(f"{name} entries must be [i, j, c] triples")
        i, j, c = _exponent(name, entry[0]), _exponent(name, entry[1]), entry[2]
        if i + j > HIGHER_DEGREE_CAP:
            raise JetFormatError(
                f"{name} exceeds the total degree cap {HIGHER_DEGREE_CAP}")
        if (i, j) in seen:
            raise JetFormatError(f"{name} names the monomial [{i}, {j}] twice")
        seen.add((i, j))
        c = _finite_float(f"{name}[{i},{j}]", c)
        if c != 0.0:
            out.append((i, j, c))
    out.sort()
    return tuple(out)


def validate_jet(raw) -> EdgeJet:
    """Validate a raw coefficient record and return an EdgeJet.

    Raises ZeroCuspidalCurvature when |b03| <= ZERO_TOL,
    NegativeLimitingNormalCurvature when b20 < 0, NonFinite on NaN/inf
    input, and JetFormatError on unknown or missing keys, on coefficients
    that are not real numbers (strings and booleans included), and on
    malformed higher-term arrays: h1..h4 longer than HIGHER_DEGREE_CAP + 1
    coefficients, h5 triples of total degree above HIGHER_DEGREE_CAP, or
    h5 exponents that are not nonnegative integers or that name one
    monomial twice.
    """
    if not isinstance(raw, dict):
        raise JetFormatError("jet record must be a mapping")
    unknown = sorted(set(raw) - set(COEFF_KEYS) - set(HIGHER_KEYS))
    if unknown:
        raise JetFormatError(f"unknown keys in jet record: {unknown}")
    missing = [k for k in COEFF_KEYS if k not in raw]
    if missing:
        raise JetFormatError(f"missing coefficients: {missing}")

    vals = {k: _finite_float(k, raw[k]) for k in COEFF_KEYS}

    if abs(vals["b03"]) <= ZERO_TOL:
        raise ZeroCuspidalCurvature(
            f"|b03| = {abs(vals['b03'])!r} is within the zero tolerance {ZERO_TOL}"
        )
    if vals["b20"] < 0:
        raise NegativeLimitingNormalCurvature(f"b20 = {vals['b20']!r} < 0")

    higher = HigherTerms(
        *(_parse_univariate(k, raw.get(k, ())) for k in HIGHER_KEYS[:4]),
        _parse_bivariate("h5", raw.get("h5", ())),
    )
    return EdgeJet(vals["a20"], vals["a30"], vals["b20"], vals["b30"],
                   vals["b12"], vals["b03"], higher)


# --- file format ---

def dump_jet(jet: EdgeJet) -> str:
    """The jet as JSON text that `load_jet` reads back: the six
    coefficients and each nonzero higher-term array."""
    out = {k: getattr(jet, k) for k in COEFF_KEYS}
    for k in HIGHER_KEYS:
        terms = getattr(jet.higher, k)
        if terms:
            out[k] = [list(t) for t in terms] if k == "h5" else list(terms)
    return json.dumps(out, indent=2, sort_keys=True)


def load_jet(text_or_path) -> EdgeJet:
    """Parse a jet from JSON text, a file path or a `pathlib.Path`.

    Text whose first non-blank character is "{" is JSON; any other string
    names a file.  Invalid JSON raises JetFormatError, and the record is
    checked by `validate_jet`.
    """
    text = text_or_path
    if hasattr(text_or_path, "read_text"):
        text = text_or_path.read_text()
    elif isinstance(text_or_path, str) and not text_or_path.lstrip().startswith("{"):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JetFormatError(f"invalid JSON: {exc}") from exc
    return validate_jet(raw)


# --- sampling ---

def _stratum_values(a20, b30, b12, b03):
    return (
        invariants.normal_curvature_derivative(a20, b30, b12),
        invariants.asymptotic_discriminant(a20, b30, b12, b03),
        invariants.characteristic_discriminant(a20, b30, b12, b03),
        invariants.common_root_guard(b30, b12, b03),
    )


def sample_generic_jet(rng_seed: int, scenario: str) -> EdgeJet:
    """Draw a random jet, rejecting degenerate configurations.

    Coefficients are uniform on [-2, 2] (b20 on [0, 2]).  Scenario
    "edge_degenerate" pins b20 = 0 and additionally enforces margins
    |b30 - a20*b12| >= 1e-3, |D_as| >= 1e-6, |D_ch| >= 1e-6 and
    |4*b12^3 + b03^2*b30| >= 1e-3, keeping the sample clear of every
    codimension-two stratum where the classification degenerates.
    Deterministic in rng_seed.
    """
    if scenario not in ("generic", "edge_degenerate"):
        raise ValueError(f"unknown scenario: {scenario!r}")
    rng = np.random.default_rng(np.random.SeedSequence([abs(int(rng_seed)), 0xED6EF01]))
    for _ in range(_SAMPLER_CAP):
        a20, a30, b30, b12, b03 = rng.uniform(-2.0, 2.0, size=5)
        if abs(b03) < 0.1:
            continue
        if scenario == "generic":
            b20 = rng.uniform(0.0, 2.0)
        else:
            b20 = 0.0
            deriv, d_as, d_ch, guard = _stratum_values(a20, b30, b12, b03)
            if abs(deriv) < 1e-3 or abs(d_as) < 1e-6 or abs(d_ch) < 1e-6 \
                    or abs(guard) < 1e-3:
                continue
        return EdgeJet(float(a20), float(a30), float(b20), float(b30),
                       float(b12), float(b03))
    raise SamplingExhausted(
        f"no admissible jet after {_SAMPLER_CAP} rejections (scenario {scenario})"
    )
