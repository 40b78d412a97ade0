"""The document emitter: ``document_json`` writes Poly leaves straight from
their packed terms and must equal the term-dict path it replaced,
``json.dumps(indent=2)`` of one {"m", "c"} dict per term, byte for byte."""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weylfrob import cli, serialize
from weylfrob.exactalg import Chart, Poly, VarSpec
from weylfrob.frobenius import build_structure
from weylfrob.rootdata import RootSystemSpec
from weylfrob.serialize import document_chunks, document_json, structure_document

REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                        / "reference.json").read_text())

SMALL_SPECS = [f"{family}{l}k{k}" for family in "CB" for l in range(1, 6)
               for k in range(1, l + 1)]


def poly_to_obj(p: Poly):
    """One {"m": variable -> exponent, "c": "p/q"} dict per term, in
    ``sorted_terms`` order."""
    return [{"m": p.exponents_as_dict(exps), "c": str(coeff)} for exps, coeff in p.sorted_terms()]


def plain(obj):
    """The document with every Poly leaf replaced by its term dicts."""
    if isinstance(obj, Poly):
        return poly_to_obj(obj)
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


def reference_document_json(doc) -> str:
    """The text of the term-dict path: json.dumps(indent=2) plus a newline."""
    return json.dumps(plain(doc), indent=2) + "\n"


def parse_label(label: str) -> RootSystemSpec:
    rank, vertex = label[1:].split("k")
    return RootSystemSpec(label[0], int(rank), int(vertex))


def spec_document(label: str):
    """The construct document of a spec, as ``weylfrob construct`` makes it."""
    struct = build_structure(parse_label(label))
    return structure_document(struct, cli.run_checks(struct, cli.CHECK_NAMES,
                                                     cli.ORACLE_MAX_RANK))


def digest(label: str) -> str:
    return hashlib.sha256(document_json(spec_document(label)).encode("utf-8")).hexdigest()


def hand_built_documents():
    """Documents covering each case of the emitter: a zero Poly, a constant
    (empty "m"), negative Laurent exponents, a non-unit common denominator,
    negative and large coefficients, empty containers, None, bools and
    non-ASCII text."""
    chart = Chart("h", [VarSpec("x", Fraction(1)), VarSpec("E", Fraction(1, 2), laurent=True)],
                  log_coord="mu", exp_var="E")
    x, E = chart.var("x"), chart.var("E")
    big = 10 ** 40 + 1
    polys = [
        Poly.const(chart, 0),
        Poly.const(chart, Fraction(-3, 7)),
        x ** 2 * E ** -3 - 5 * E ** -1 + 2,
        Fraction(1, 2) * x + Fraction(1, 3) * E ** 2 + Fraction(5, 6),
        -big * x ** 3 + Fraction(big, 3) * E ** 4 - Fraction(1, big),
    ]
    doc = {
        "polys": polys,
        "matrix": [[polys[0], polys[2]], [polys[3], polys[1]]],
        "map": {"forward": {"y1": polys[4]}, "pullback": {}},
        "empty": [{}, [], ()],
        "scalars": [None, True, False, 0, -12, big, "", "1/2"],
        "verification": [{"check": "oracle", "passed": True,
                          "detail": "ζ_a pairs as ζ_a(4 − ζ_a) \"quoted\"\tand\\n"}],
    }
    return [doc, polys[3], polys[0], {}, [], "ü", None, 7]


def mismatched(docs) -> bool:
    return any(document_json(doc) != reference_document_json(doc) for doc in docs)


@pytest.mark.parametrize("label", SMALL_SPECS + ["C7k1", "C7k7"])
def test_emitter_matches_the_term_dict_path_on_specs(label):
    assert not mismatched([spec_document(label)])


def test_emitter_matches_the_term_dict_path_on_hand_built_documents():
    assert not mismatched(hand_built_documents())


def test_every_reference_digest_is_rebuilt():
    assert len(REFERENCE) == 32
    assert {label: digest(label) for label in REFERENCE} == REFERENCE


def test_document_json_joins_the_chunks_and_reads_plain_documents():
    doc = spec_document("C3k1")
    chunks = list(document_chunks(doc))
    text = document_json(doc)
    assert len(chunks) > 1 and "".join(chunks) == text
    assert document_json(json.loads(text)) == text
    assert document_json(plain(doc)) == text


def failing_guards(labels=("C3k1", "B3k2")):
    """The guards above that the emitter as it stands fails, on ``labels``."""
    failed = []
    if mismatched(map(spec_document, labels)):
        failed.append("specs")
    if mismatched(hand_built_documents()):
        failed.append("hand-built")
    if any(digest(label) != REFERENCE[label] for label in labels):
        failed.append("digests")
    return failed


def _ascending(reduced_terms):
    return lambda p: reversed(list(reduced_terms(p)))


def _unreduced(reduced_terms):
    def terms(p):
        for exps, num, den in reduced_terms(p):
            yield exps, num * (p.den // den), p.den
    return terms


def _without_empty_m(poly_text):
    return lambda p, nl: re.sub(r'"m": \{\},\s*', "", poly_text(p, nl))


@pytest.mark.parametrize("corrupt,caught", [
    ("ascending term order", ["specs", "hand-built", "digests"]),
    ("unreduced coefficient", ["specs", "hand-built", "digests"]),
    ("empty m dropped", ["specs", "hand-built", "digests"]),
    ("ensure_ascii off", ["hand-built"]),
])
def test_each_guard_fails_on_a_seeded_corruption(monkeypatch, corrupt, caught):
    assert failing_guards() == []
    if corrupt == "ascending term order":
        monkeypatch.setattr(Poly, "reduced_terms", _ascending(Poly.reduced_terms))
    elif corrupt == "unreduced coefficient":
        monkeypatch.setattr(Poly, "reduced_terms", _unreduced(Poly.reduced_terms))
    elif corrupt == "empty m dropped":
        monkeypatch.setattr(serialize, "_poly_text", _without_empty_m(serialize._poly_text))
    else:
        monkeypatch.setattr(serialize, "_quote", json.encoder.encode_basestring)
    assert failing_guards() == caught
