"""JSON serialization for the external interfaces.

All values are integers or strings; no floating point is accepted or
produced.  Integers that do not fit in 64 bits are written as decimal
strings and parsed back transparently, up to INPUT_DIGITS digits: loads
parses under that int/str conversion limit of the interpreter, and
parse_int, the one reader of integer text, rejects longer digit strings.
canonical_json is byte-stable: sorted keys, fixed separators.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any

from .chardata import AMBIENT_KINDS, Ambient, CharacteristicData
from .errors import InputFormatError
from .lattice import IntVector, as_id
from .quasitoric import CharacteristicFunction, SimplePolytope
from .sponge import Cell, SpongeComplex
from .weights import WeightSystem

_I64_MAX = 2**63 - 1
_I64_MIN = -(2**63)
INPUT_DIGITS = 4300  # the interpreter's default int/str conversion limit, kept as the input bound


@contextmanager
def _digit_limit(limit: int):
    """Run the block with the interpreter's int/str conversion limit at limit (0: none).

    The limit is interpreter-wide: another thread converting integers meanwhile sees it too.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _excerpt(x) -> str:
    """repr(x), or for a long value its first characters and its length."""
    text = x if isinstance(x, str) else repr(x)
    return repr(x) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def _encode_int(x: int):
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


def parse_int(text: str) -> int | None:
    """The integer that text spells as an optional "-" then at most INPUT_DIGITS ASCII digits, else None."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit() and len(digits) <= INPUT_DIGITS:
        return int(text)
    return None


def _decode_int(x, where: str) -> int:
    if isinstance(x, bool):
        raise InputFormatError(f"{where}: expected integer, got boolean")
    if isinstance(x, int):
        return x
    value = parse_int(x) if isinstance(x, str) else None
    if value is None:
        raise InputFormatError(f"{where}: expected integer, got {_excerpt(x)}")
    return value


def _text(x, where: str) -> str:
    """x itself if it is a string: str() would turn null, a number or a list into an id."""
    if not isinstance(x, str):
        raise InputFormatError(f"{where}: expected a string, got {_excerpt(x)}")
    return x


def _reject_float(value: str):
    raise InputFormatError(f"floating-point literal {_excerpt(value)} is not allowed")


def loads(text: str) -> Any:
    try:
        with _digit_limit(INPUT_DIGITS):
            return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except InputFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise InputFormatError(f"malformed JSON: {exc}") from exc


def read_json(path: str) -> Any:
    """Parse an ASCII JSON file; unreadable or non-ASCII files are malformed input."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _int_list(v: IntVector) -> list:
    return [_encode_int(x) for x in v]


def _vector(data, where: str, key=None) -> IntVector:
    """data as a vector; where, then [key] if a key is given, names it in an error, and is formatted only there."""
    if type(data) is list and all(type(x) is int for x in data):
        return IntVector(tuple(data))
    if key is not None:
        where = f"{where}[{key}]"
    if not isinstance(data, list):
        raise InputFormatError(f"{where}: expected a list of integers")
    return IntVector(tuple(_decode_int(x, where) for x in data))


def weight_system_to_dict(ws: WeightSystem) -> dict:
    return {"n": ws.n, "weights": [_int_list(w) for w in ws.weights]}


def weight_system_from_dict(data: Mapping, where: str = "weight system") -> WeightSystem:
    if not isinstance(data, Mapping) or "n" not in data or "weights" not in data:
        raise InputFormatError(f"{where}: need keys 'n' and 'weights'")
    n = _decode_int(data["n"], f"{where}.n")
    weights = data["weights"]
    if not isinstance(weights, list):
        raise InputFormatError(f"{where}.weights: expected a list")
    if len(weights) != n or any(not isinstance(w, list) or len(w) != n - 1 for w in weights):
        raise InputFormatError(f"{where}.weights: expected {n} lists of {n - 1} integers")
    at = f"{where}.weights"
    return WeightSystem(n=n, weights=tuple(_vector(w, at, i) for i, w in enumerate(weights)))


def sponge_to_dict(s: SpongeComplex) -> dict:
    return {
        "n": s.n,
        "cells": [
            {"id": c.id, "dim": c.dim, "label": c.label}
            for c in sorted(s.cells, key=lambda c: (c.dim, c.id))
        ],
        "incidence": {
            cid: [[sub, sign] for sub, sign in entries]
            for cid, entries in sorted(s.incidence.items())
        },
    }


def sponge_from_dict(data: Mapping, where: str = "sponge") -> SpongeComplex:
    if not isinstance(data, Mapping) or "n" not in data or "cells" not in data:
        raise InputFormatError(f"{where}: need keys 'n', 'cells', 'incidence'")
    n = _decode_int(data["n"], f"{where}.n")
    if not isinstance(data["cells"], list):
        raise InputFormatError(f"{where}.cells: expected a list")
    by_id = {}
    for i, c in enumerate(data["cells"]):
        if not isinstance(c, Mapping) or "id" not in c or "dim" not in c:
            raise InputFormatError(f"{where}.cells[{i}]: need 'id' and 'dim'")
        cid, dim, label = c["id"], c["dim"], c.get("label", "")
        if type(cid) is not str or type(dim) is not int or type(label) is not str:
            at = f"{where}.cells[{i}]"
            label = _text(label, f"{at}.label")
            cid, dim = _text(cid, f"{at}.id"), _decode_int(dim, f"{at}.dim")
        by_id[cid] = Cell(cid, dim, label)
    incidence = {}
    raw_inc = data.get("incidence", {})
    if not isinstance(raw_inc, Mapping):
        raise InputFormatError(f"{where}.incidence: expected an object")
    for cid, entries in raw_inc.items():
        if cid not in by_id:  # unknown subcells stay a validation failure
            raise InputFormatError(f"{where}.incidence: key {cid!r} is not a cell id")
        if not isinstance(entries, list):
            raise InputFormatError(f"{where}.incidence[{cid}]: expected a list")
        pairs = []
        for e in entries:
            if type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is int:
                pairs.append((e[0], e[1]))
                continue
            at = f"{where}.incidence[{cid}]"
            if not isinstance(e, list) or len(e) != 2:
                raise InputFormatError(f"{at}: entries are [id, sign] pairs")
            pairs.append((_text(e[0], at), _decode_int(e[1], at)))
        incidence[cid] = tuple(pairs)
    if len(by_id) != len(data["cells"]):
        raise InputFormatError("duplicate cell ids")
    return SpongeComplex._from_checked(n, by_id, incidence)


def chardata_to_dict(cd: CharacteristicData) -> dict:
    out = {
        "n": cd.n,
        "sponge": sponge_to_dict(cd.sponge),
        "mu": {fid: _int_list(cd.mu[fid]) for fid in sorted(cd.mu)},
        "euler_sign": {fid: cd.euler_sign[fid] for fid in sorted(cd.euler_sign)},
        "ambient": cd.ambient.kind,
    }
    if not cd.ambient.boundary_trivial:
        out["boundary_trivial"] = False  # only when false: files with the default keep their bytes
    return out


def chardata_from_dict(data: Mapping, where: str = "chardata") -> CharacteristicData:
    for key in ("n", "sponge", "mu", "euler_sign", "ambient"):
        if not isinstance(data, Mapping) or key not in data:
            raise InputFormatError(f"{where}: missing key {key!r}")
    n = _decode_int(data["n"], f"{where}.n")
    sponge = sponge_from_dict(data["sponge"], f"{where}.sponge")
    if n != sponge.n:  # n is written for readers of the file; the sponge fixes it
        raise InputFormatError(f"{where}.n: {_excerpt(n)} differs from the sponge's n = {_excerpt(sponge.n)}")
    if not isinstance(data["mu"], Mapping) or not isinstance(data["euler_sign"], Mapping):
        raise InputFormatError(f"{where}: 'mu' and 'euler_sign' must be objects")
    at = f"{where}.mu"
    mu = {k: _vector(v, at, k) for k, v in data["mu"].items()}
    signs = {
        k: v if type(v) is int else _decode_int(v, f"{where}.euler_sign[{k}]") for k, v in data["euler_sign"].items()
    }
    kind = data["ambient"]
    if kind not in AMBIENT_KINDS:
        raise InputFormatError(f"{where}.ambient: unknown kind {kind!r}")
    boundary_trivial = data.get("boundary_trivial", True)
    if not isinstance(boundary_trivial, bool):
        raise InputFormatError(f"{where}.boundary_trivial: expected a boolean")
    try:
        ambient = Ambient(kind, boundary_trivial)
    except InputFormatError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc
    for keys, what in ((mu, "mu key"), (signs, "Euler sign key")):
        for k in keys:
            as_id(k, what)
    return CharacteristicData._from_checked(sponge, mu, signs, ambient)


def polytope_to_dict(p: SimplePolytope) -> dict:
    return {
        "n": p.n,
        "facets": list(p.facets),
        "vertices": [sorted(v) for v in sorted(p.vertices, key=lambda v: tuple(sorted(v)))],
    }


def polytope_from_dict(data: Mapping, where: str = "polytope") -> SimplePolytope:
    for key in ("n", "facets", "vertices"):
        if not isinstance(data, Mapping) or key not in data:
            raise InputFormatError(f"{where}: missing key {key!r}")
    n = _decode_int(data["n"], f"{where}.n")
    if not isinstance(data["facets"], list) or not isinstance(data["vertices"], list):
        raise InputFormatError(f"{where}: 'facets' and 'vertices' must be lists")
    if not all(isinstance(v, list) for v in data["vertices"]):
        raise InputFormatError(f"{where}.vertices: each vertex is a list of facet ids")
    facets = tuple(f if type(f) is str else _text(f, f"{where}.facets[{i}]") for i, f in enumerate(data["facets"]))
    vertices = tuple(
        frozenset(f if type(f) is str else _text(f, f"{where}.vertices[{i}]") for f in v)
        for i, v in enumerate(data["vertices"])
    )
    return SimplePolytope(n=n, facets=facets, vertices=vertices)


def lambda_to_dict(lam: CharacteristicFunction) -> dict:
    return {fid: _int_list(v) for fid, v in sorted(lam.values.items())}


def lambda_from_dict(data: Mapping, where: str = "lambda") -> CharacteristicFunction:
    if not isinstance(data, Mapping):
        raise InputFormatError(f"{where}: expected an object of facet -> vector")
    return CharacteristicFunction({k: _vector(v, where, k) for k, v in data.items()})
