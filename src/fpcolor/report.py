"""JSON reports and definition-level certificate re-verification.

Reports are the product's single output format; with fixed inputs and seeds
they are byte-identical across runs (timing is opt-in precisely so the
default output stays canonical).  ``verify_report`` re-checks certificates
with ``fpcolor.check``, from the definitions only: no solver is imported.
"""

from __future__ import annotations

import json
from fractions import Fraction

from fpcolor.check import (exists_L_coloring, is_island, island_free_exhaustive,
                           verify_fp_proper, verify_peel)
from fpcolor.errors import CapExceeded
from fpcolor.graph import Graph, GraphError, bits, from_graph6, mask_of
from fpcolor.params import get_parameter

BAD_ASSIGNMENT_VERIFY_CAP = 10**6


def jsonable(obj):
    """Recursively convert report payloads to plain JSON types."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float) and obj == float("inf"):
        return "inf"
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, set):
        return sorted(obj)
    return obj


def canonical_json(obj):
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def make_report(command, inputs, result, certificate=None, status="exact"):
    return {
        "command": command,
        "inputs": jsonable(inputs),
        "result": jsonable(result),
        "certificate": jsonable(certificate),
        "status": status,
    }


# -- certificate (de)serialization ------------------------------------------


def peel_to_json(islands, s, f_id, p):
    return {
        "type": "peel",
        "s": s,
        "f": f_id,
        "p": p,
        "islands": [sorted(bits(island)) for island in islands],
    }


def col_to_json(res, f_id, p):
    lower = None
    if res.lower_certificate is not None:
        lower = {
            "type": "island_free",
            "s": res.value - 1,
            "f": f_id,
            "p": p,
            "vertices": sorted(bits(res.lower_certificate)),
        }
    return {
        "type": "col",
        "value": res.value,
        "upper": peel_to_json(res.islands, res.value, f_id, p),
        "lower": lower,
    }


def coloring_to_json(coloring, f_id, p):
    return {"type": "coloring", "f": f_id, "p": p, "colors": list(coloring)}


def assignment_to_json(lists, s, f_id, p):
    """Certificate of an s-list system (colour bitmasks, one per vertex)
    that admits no (f,p)-proper colouring."""
    return {
        "type": "bad_list_assignment",
        "s": s,
        "f": f_id,
        "p": p,
        "lists": [list(bits(lst)) for lst in lists],
    }


def _island_claims(g, island, f):
    """What an island certificate states besides its vertices: f on the
    island, and each vertex's number of neighbours outside it."""
    return {
        "f_value": f.eval_mask(g, island),
        "outside_counts": {str(v): (g.adj[v] & ~island).bit_count() for v in bits(island)},
    }


def island_to_json(g: Graph, island, s, f, p):
    return {
        "type": "island",
        "s": s,
        "f": f.id,
        "p": p,
        "vertices": sorted(bits(island)),
        **_island_claims(g, island, f),
    }


# -- re-verification -----------------------------------------------------------


class CertificateError(ValueError):
    """Malformed or unverifiable certificate."""


def _graph_from_report(report):
    try:
        g6 = report["inputs"]["graph6"]
    except KeyError:
        raise CertificateError("report lacks inputs.graph6; cannot re-verify") from None
    try:
        g = from_graph6(g6)
    except GraphError as exc:
        raise CertificateError(f"malformed report: inputs.{exc}") from None
    declared = report["inputs"].get("graph_hash")
    if declared is not None and declared != g.content_hash():
        raise CertificateError("graph hash mismatch: report was tampered with")
    return g


def _parameter(cert):
    try:
        return get_parameter(cert["f"])
    except ValueError as exc:
        raise CertificateError(str(exc)) from None


def _vertex_mask(g, vertices):
    """Bitmask of a certificate's vertex list, whose ids must lie in 0..n-1."""
    for v in vertices:
        if type(v) is not int or not 0 <= v < g.n:
            raise CertificateError(f"vertex id {v!r} out of range for n={g.n}")
    return mask_of(vertices)


def verify_certificate(g: Graph, cert: dict) -> bool:
    """Re-check one certificate against the definitions."""
    for key in ("s", "p"):
        if key in cert and type(cert[key]) is not int:  # 2.5 and true are refused too
            raise CertificateError(f"certificate {key} = {cert[key]!r} is not an integer")
    kind = cert.get("type")
    if kind == "peel":
        f = _parameter(cert)
        islands = [_vertex_mask(g, vs) for vs in cert["islands"]]
        return verify_peel(g, islands, cert["s"], f, cert["p"])
    if kind == "island_free":
        f = _parameter(cert)
        mask = _vertex_mask(g, cert["vertices"])
        if not mask:
            return False  # vacuously island-free, but a stuck peel leaves vertices
        try:
            return island_free_exhaustive(g, cert["s"], f, cert["p"], active=mask)
        except CapExceeded:
            raise CertificateError("lower certificate unverifiable at cap") from None
    if kind == "col":
        if type(cert["value"]) is not int or cert["value"] < 1:
            return False  # col is at least 1, on the null graph too
        upper = cert["upper"]
        if not verify_certificate(g, upper):
            return False
        if upper["s"] != cert["value"]:
            return False
        lower = cert.get("lower")
        if cert["value"] > 1:
            if lower is None:
                return False
            if (lower["s"], lower["f"], lower["p"]) != (cert["value"] - 1, upper["f"], upper["p"]):
                return False
            return verify_certificate(g, lower)
        return True
    if kind == "island":
        f = _parameter(cert)
        mask = _vertex_mask(g, cert["vertices"])
        if not mask:
            return False
        claims = _island_claims(g, mask, f)
        stated = {key: cert[key] for key in claims}
        if json.dumps(stated, sort_keys=True) != json.dumps(claims, sort_keys=True):
            return False  # strict: a stated count of true is not 1
        return is_island(g, mask, g.full_mask(), cert["s"]) and claims["f_value"] <= cert["p"]
    if kind == "coloring":
        f = _parameter(cert)
        colors = cert["colors"]
        if len(colors) != g.n:
            return False
        lists = cert.get("lists")
        if lists is not None:
            if len(lists) != g.n or any(c not in set(lst) for c, lst in zip(colors, lists)):
                return False
        return verify_fp_proper(g, tuple(colors), f, cert["p"])
    if kind == "bad_list_assignment":
        f = _parameter(cert)
        lists = cert["lists"]
        if len(lists) != g.n:
            return False
        total = 1
        for lst in lists:
            if any(type(c) is not int for c in lst) or len(set(lst)) != len(lst):
                raise CertificateError(f"list {lst!r} is not a set of integer colours")
            if len(lst) < cert["s"]:
                return False
            total *= len(lst)
            if total > BAD_ASSIGNMENT_VERIFY_CAP:
                raise CertificateError("bad-assignment certificate unverifiable at cap")
        if not total:  # an empty list: no colouring, and no list need be read as masks
            return True
        # a vertex with g.n colours can always take one that no other vertex uses,
        # alone in its class (f is hereditary): each list's g.n smallest colours
        # leave the verdict as it was, and no mask is wider than n^2 colours
        lists = [sorted(lst)[:g.n] for lst in lists]
        # colours renamed 0..u-1 in sorted order: a bijection, so the verdict
        # stays, and no colour is a huge shift
        rename = {c: i for i, c in enumerate(sorted({c for lst in lists for c in lst}))}
        masks = [mask_of(rename[c] for c in lst) for lst in lists]
        return exists_L_coloring(g, masks, f, cert["p"]) is None
    raise CertificateError(f"unknown certificate type {kind!r}")


#: the certificate type that each solve command emits
_CERTIFICATE_TYPES = {"solve col": "col", "solve chi": "coloring",
                      "solve choosable": "bad_list_assignment", "solve island": "island"}


def _certified_claims(cert):
    """The (claim, value) pairs a certificate vouches for: f, p, s and the
    solver's answer."""
    kind = cert["type"]
    if kind == "col":
        return [("value", cert["value"]), ("f", cert["upper"]["f"]), ("p", cert["upper"]["p"])]
    claims = [(key, cert[key]) for key in ("f", "p", "s") if key in cert]
    if kind == "coloring":
        claims.append(("value", len(set(cert["colors"]))))  # chi: colours used
    elif kind == "island":
        claims.append(("value", True))
    elif kind == "bad_list_assignment":
        claims.append(("value", False))
    return claims


def _check_claims(report, cert):
    """Raise CertificateError if the report claims what its certificate does not."""
    command = report.get("command")
    kind = _CERTIFICATE_TYPES.get(command)
    if kind is not None and cert.get("type") != kind:
        raise CertificateError(
            f"a {command!r} report cannot carry a {cert.get('type')!r} certificate"
        )
    claims = _certified_claims(cert)
    for section in ("inputs", "result"):
        stated = report.get(section) or {}
        for key, value in claims:
            if key in stated and (type(stated[key]) is not type(value) or stated[key] != value):
                raise CertificateError(
                    f"{section}.{key} = {stated[key]!r} disagrees with the certificate ({value!r})"
                )


def verify_report(report: dict) -> bool:
    """Re-verify a loaded report; a malformed one raises CertificateError."""
    if not isinstance(report, dict):
        raise CertificateError("report is not a JSON object")
    cert = report.get("certificate")
    if cert is None:
        raise CertificateError("report carries no certificate")
    try:
        g = _graph_from_report(report)
        _check_claims(report, cert)
        return verify_certificate(g, cert)
    except KeyError as exc:
        raise CertificateError(f"malformed report: missing field {exc}") from None
    except (TypeError, AttributeError, IndexError, RecursionError) as exc:
        raise CertificateError(f"malformed report: {exc}") from None
