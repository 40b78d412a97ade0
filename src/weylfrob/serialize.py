"""JSON and LaTeX serialization of constructed structures.

Rationals are serialized as exact 'p/q' strings, a polynomial as the list of
its terms {"m": variable -> integer exponent, "c": coefficient} in descending
graded-lex order, so an exported document re-imports and re-exports
byte-identically.  ``structure_document`` keeps the polynomials of a
structure as Poly leaves; ``document_chunks`` writes the text of
``json.dumps(doc, indent=2)`` piece by piece, each Poly straight from its
packed terms.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterator, List

from .exactalg import Chart, Poly
from .frobenius import ORACLE_AGREES, FrobeniusStructure
from .orbitspace import CoordMap, generator_map, theta_map, zeta_chart


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def chart_to_obj(chart: Chart) -> Dict:
    return {
        "name": chart.name,
        "vars": [{"name": v.name, "weight": frac_str(v.weight), "laurent": v.laurent}
                 for v in chart.vars],
        "log_coord": chart.log_coord,
        "exp_var": chart.exp_var,
    }


def map_to_obj(cmap: CoordMap) -> Dict:
    obj = {"source": cmap.source.name, "target": cmap.target.name}
    if cmap.forward is not None:
        obj["forward"] = dict(sorted(cmap.forward.items()))
    if cmap.pullback is not None:
        obj["pullback"] = dict(sorted(cmap.pullback.items()))
    return obj


def structure_document(struct: FrobeniusStructure, report: List[Dict]) -> Dict:
    """The construct document, with a Poly at each polynomial leaf."""
    spec = struct.spec
    gen = generator_map(struct.cspec)
    th = theta_map(struct.cspec)
    doc = {
        "spec": {"family": spec.family, "rank": spec.rank, "vertex": spec.vertex},
        "underlying_c_spec": {"family": struct.cspec.family,
                              "rank": struct.cspec.rank,
                              "vertex": struct.cspec.vertex},
        "charts": {
            "zeta": chart_to_obj(zeta_chart(struct.cspec)),
            "theta": chart_to_obj(th.source),
            "y": chart_to_obj(struct.pencil.chart),
            "z": chart_to_obj(struct.flat.z_map.target),
            "w": chart_to_obj(struct.flat.w_map.target),
            "t": chart_to_obj(struct.flat.t_map.target),
        },
        "maps": {
            "generators_zeta_to_y": map_to_obj(gen),
            "theta_to_y": map_to_obj(th),
            "y_to_z": map_to_obj(struct.flat.z_map),
            "z_to_w": map_to_obj(struct.flat.w_map),
            "w_to_t": map_to_obj(struct.flat.t_map),
        },
        "eta_t": [list(row) for row in struct.flat.eta_t.mat],
        "g_t": [list(row) for row in struct.g_t.mat],
        "potential": {
            "head": {
                "monomial": {f"t{struct.potential.vertex}": 2,
                             struct.potential.chart.log_coord: 1},
                "coefficient": "1/2",
            },
            "terms": struct.potential.poly,
        },
        "euler": {
            "dtilde": [frac_str(x) for x in struct.euler.dtilde],
            "last_component": frac_str(struct.euler.last_component),
        },
        "b_identification": None,
        "verification": report,
    }
    if struct.b_ident is not None:
        doc["b_identification"] = {
            "log_scale": frac_str(struct.b_ident.log_scale),
            "last_generator_squares_to": "y_l^2",
            "oracle_validated": {"check": "oracle", "passed": True,
                                 "detail": ORACLE_AGREES} in report,
        }
    return doc


def document_chunks(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` in pieces, a Poly
    leaf written as the list of its term objects."""
    yield from _chunks(doc, "\n")
    yield "\n"


def document_json(doc) -> str:
    return "".join(document_chunks(doc))


def _chunks(obj, nl: str) -> Iterator[str]:
    """json.dumps(obj, indent=2) at the indentation ``nl`` (a newline and
    the spaces of obj's own line)."""
    if isinstance(obj, Poly):
        yield _poly_text(obj, nl)
    elif isinstance(obj, str):
        yield _quote(obj)
    elif isinstance(obj, dict) and obj:
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + _quote(key) + ": "
            yield from _chunks(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            yield sep
            yield from _chunks(value, inner)
            sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(obj)


def _poly_text(p: Poly, nl: str) -> str:
    """The term list of p as json.dumps(..., indent=2) writes it at ``nl``."""
    if p.is_zero():
        return "[]"
    term = nl + "  "
    field = term + "  "
    entry = {v.name: field + "  " + _quote(v.name) + ": " for v in p.chart.vars}
    parts = []
    for exps, num, den in p.reduced_terms():
        mono = ("{" + ",".join([entry[name] + str(e) for name, e in exps]) + field + "}"
                if exps else "{}")
        coeff = f"{num}/{den}" if den != 1 else str(num)
        parts.append(f'{{{field}"m": {mono},{field}"c": "{coeff}"{term}}}')
    return "[" + term + ("," + term).join(parts) + nl + "]"


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def _latex_coeff(c: Fraction, lead: bool) -> str:
    sign = "-" if c < 0 else ("" if lead else "+")
    c = abs(c)
    if c == 1:
        return sign if sign else ""
    if c.denominator == 1:
        return f"{sign}{c.numerator}"
    return f"{sign}\\frac{{{c.numerator}}}{{{c.denominator}}}"


def poly_latex(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chart = p.chart
    log_idx = chart.index[chart.exp_var] if chart.exp_var else None
    parts = []
    for pos, (exps, coeff) in enumerate(p.sorted_terms()):
        factors = []
        for i, (v, e) in enumerate(zip(chart.vars, exps)):
            if not e:
                continue
            if i == log_idx:
                inner = chart.log_coord
                name = f"{inner[0]}_{{{inner[1:]}}}"
                factors.append(f"e^{{{e} {name}}}" if e != 1 else f"e^{{{name}}}")
            else:
                base = f"{v.name[0]}_{{{v.name[1:]}}}"
                factors.append(base if e == 1 else f"{base}^{{{e}}}")
        body = " ".join(factors)
        sign = "-" if coeff < 0 else ("" if pos == 0 else "+")
        mag = abs(coeff)
        if mag.denominator == 1:
            num = "" if (mag == 1 and body) else str(mag.numerator)
        else:
            num = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        parts.append(f"{sign}{num}{(' ' if num and body else '')}{body}".strip())
    return " ".join(parts)


def structure_latex(struct: FrobeniusStructure) -> str:
    spec = struct.spec
    k = struct.potential.vertex
    l = struct.cspec.rank
    head = f"\\frac{{1}}{{2}} t_{{{k}}}^{{2}} t_{{{l + 1}}}"
    tail = poly_latex(struct.potential.poly)
    joined = f"{head} {tail}" if tail.startswith("-") else f"{head} + {tail}"
    lines = [
        f"% Frobenius structure for {spec.family}_{spec.rank}, vertex k = {spec.vertex}",
        "\\begin{align*}",
        f"F &= {joined} \\\\",
    ]
    euler_terms = [f"{_latex_coeff(c, lead=(i == 0))}t_{{{i + 1}}}\\partial_{{{i + 1}}}"
                   for i, c in enumerate(struct.euler.dtilde)]
    last = _latex_coeff(struct.euler.last_component, lead=False)
    lines.append(f"E &= {' '.join(euler_terms)} {last}\\partial_{{{l + 1}}}")
    lines.append("\\end{align*}")
    return "\n".join(lines) + "\n"
