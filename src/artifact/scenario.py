"""Scenario loading: every field of a scenario file is read before any grid.

A reader is called as reader(value, field, dim) with the field's dotted
name and the domain's dimension; it returns the read value or raises a
ScenarioError naming the field.  The probe's and the psi schedule's fields
are declared once, with reader and default, in ``WienerProbeConfig`` and
``IterationSchedule``: their constructors and the param tables ``_PROBE``
and ``_PSI_RECURSION`` read through the same declarations, so the Python
API and a scenario refuse a value by one rule.  Nothing here builds a grid.
"""

import dataclasses
import json
import math
import operator
import warnings
from pathlib import Path

from ._expr import Expression
from .domain.shapes import shape_from_dict
from .monotone import OperatorSpec


class ScenarioError(ValueError):
    """Configuration problem; names the offending field, by its dotted
    place in a scenario or by its name on a config class.  ``scenario`` and
    ``task`` hold the scenario's name and task when both were valid."""

    scenario = task = None

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def _as_number(value, field, dim=None):
    """``value`` as a float.  A bool, a string, a list or any other
    non-number, and NaN and +-Infinity (JSON tokens that ``json.loads``
    accepts), is a ScenarioError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(field, f"expected a finite number, got {value!r}")
    return float(value)


def _positive_number(value, field, dim=None):
    """``value`` read by ``_as_number``, which must be positive."""
    value = _as_number(value, field)
    if not value > 0:
        raise ScenarioError(field, "must be positive")
    return value


def _fraction(value, field, dim=None):
    """``value`` read by ``_as_number``, which must lie in (0, 1)."""
    value = _as_number(value, field)
    if not 0 < value < 1:
        raise ScenarioError(field, "must lie in (0, 1)")
    return value


def _count(value, field, dim=None):
    """``value`` as an int of at least 1."""
    number = _as_number(value, field)
    if not number.is_integer() or number < 1:
        raise ScenarioError(field, f"expected an integer of at least 1, got {value!r}")
    return int(number)


def _sign(value, field, dim=None):
    """``value`` as the int 1 or -1."""
    if _as_number(value, field) not in (1.0, -1.0):
        raise ScenarioError(field, f"expected 1 or -1, got {value!r}")
    return int(value)


def _bool(value, field, dim=None):
    if not isinstance(value, bool):
        raise ScenarioError(field, f"expected true or false, got {value!r}")
    return value


def _positive_or_auto(value, field, dim=None):
    """The string ``"auto"``, or a positive number."""
    return value if value == "auto" else _positive_number(value, field)


def _point(value, field, dim):
    """A list of ``dim`` numbers (of any length when ``dim`` is None), each
    named by its index (``params.y[0]``)."""
    point = _read([_as_number], value, field, dim)
    if dim is not None and len(point) != dim:
        raise ScenarioError(field, f"expected {dim} coordinates, got {len(point)}")
    return point


def _band(value, field, dim=None):
    """A list [lo, hi] of two numbers."""
    return _point(value, field, 2)


def _shape(value, field, dim=None):
    """A shape object rebuilt by ``shape_from_dict``, of dimension ``dim``
    when one is given; a missing or unknown key or a bad value anywhere
    inside it is a ScenarioError naming the field.  Every number in it
    must be finite (``_finite_numbers``)."""
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {value!r}")
    _finite_numbers(value, field)
    try:
        shape = shape_from_dict(value)
    except KeyError as exc:
        raise ScenarioError(field, f"missing key {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ScenarioError(field, str(exc)) from exc
    if dim is not None and shape.dim != dim:
        raise ScenarioError(field, f"expected a {dim}D shape, got a {shape.dim}D one")
    return shape


def _finite_numbers(value, field):
    """Read every number in the objects and lists of ``value`` by
    ``_as_number``, naming its place (``scenario.shape.lo[0]``): a null,
    which numpy would read as NaN, a bool, NaN or an infinity is a
    ScenarioError.  Strings are left to the caller."""
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_numbers(item, f"{field}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite_numbers(item, f"{field}[{i}]")
    elif not isinstance(value, str):
        _as_number(value, field)


def _expression(text, field, dim):
    """``text`` parsed into an ``Expression`` of at most ``dim`` coordinates;
    a non-string, a parse error or a coordinate above ``dim`` is a
    ScenarioError naming ``field``."""
    if not isinstance(text, str):
        raise ScenarioError(field, f"expected an expression, got {text!r}")
    try:
        expr = Expression(text)
    except ValueError as exc:
        raise ScenarioError(field, f"invalid expression {text!r}: {exc}") from exc
    if expr.dim > dim:
        raise ScenarioError(field, f"invalid expression {text!r}: x{expr.dim} on a {dim}D domain")
    return expr


def _number_or_expression(value, field, dim):
    """Boundary data: an expression string, parsed, or a number."""
    if isinstance(value, str):
        return _expression(value, field, dim)
    if not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected an expression or number, got {value!r}")
    return _as_number(value, field)


class _Kinds(dict):
    """A param table picked by the object's ``kind``: kind -> table."""


def _read(spec, value, field, dim):
    """``value`` read through ``spec`` (see ``_PARAMS``), fields in table
    order, each named by its dotted place (``params.caccioppoli[0].R``).
    A tuple passes where a list does, as the Python API gives points."""
    if isinstance(spec, list):
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(field, f"expected a list, got {value!r}")
        return [_read(spec[0], item, f"{field}[{i}]", dim) for i, item in enumerate(value)]
    if not isinstance(spec, dict):
        return spec(value, field, dim)
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {value!r}")
    if isinstance(spec, _Kinds):
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in spec:
            raise ScenarioError(f"{field}.kind", f"unknown kind {kind!r}; known: {sorted(spec)}")
        rest = {key: item for key, item in value.items() if key != "kind"}
        return {"kind": kind, **_read(spec[kind], rest, field, dim)}
    read = {}
    for key, (sub, default) in spec.items():
        if key in value:
            read[key] = _read(sub, value[key], f"{field}.{key}", dim)
        elif default is ...:
            raise ScenarioError(f"{field}.{key}", "required field is missing")
        else:
            read[key] = default
    for key in value:
        if key not in spec:
            raise ScenarioError(f"{field}.{key}", f"unknown key; known: {', '.join(spec)}")
    return read


# ---------------------------------------------------------------------------
# Config classes: each field declared once, with its reader and default.
# ---------------------------------------------------------------------------


def _declared(read, default=dataclasses.MISSING):
    """A dataclass field read by the spec ``read``; no default makes it
    required."""
    return dataclasses.field(default=default, metadata={"read": read})


def _read_declared(config):
    """Read every field of ``config`` in place through its declared spec,
    named by the field's own name; a list comes back a tuple, and a None
    default stays None."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        value = _read(f.metadata["read"], value, f.name, None)
        setattr(config, f.name, tuple(value) if isinstance(value, list) else value)


def _param_table(config, **keys):
    """The param table of ``config``'s declared fields, in their order;
    ``keys`` renames a field's param key, and drops it when None."""
    return {
        keys.get(f.name, f.name): (
            f.metadata["read"], ... if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(config) if keys.get(f.name, f.name) is not None
    }


@dataclasses.dataclass
class WienerProbeConfig:
    """Probe geometry and verdict thresholds for one boundary point.

    Observation radii follow the fixed quarter ladder r_k = r0 / 4^k for
    k = 0..K.  Desk-scale grids often cannot represent the full ladder
    (r_K can drop below the spacing while the solve region must still fit
    the node budget), so short ladders and unrepresentable radii are
    warnings and per-level notes, not errors; the verdict then uses the
    smallest radius that still holds nodes.  ``h_levels`` is kept
    deduplicated, coarse first.
    """

    y: tuple = _declared(_point)
    cap_radius: float = _declared(_positive_number)
    r0: float = _declared(_positive_number)
    K: int = _declared(_count)
    h_levels: tuple = _declared([_positive_number])
    height: float = _declared(_positive_number, 1.0)
    sign: int = _declared(_sign, 1)
    decay_factor: float = _declared(_fraction, 0.1)
    stagnation_floor: float = _declared(_fraction, 0.25)
    shrink_ratio: float = _declared(_fraction, 0.7)
    stagnation_ratio: float = _declared(_fraction, 0.9)
    near_radius_cells: float = _declared(_positive_number, 4.0)
    fixed_radius: float = _declared(_positive_number, None)

    def __post_init__(self):
        _read_declared(self)
        self.h_levels = tuple(sorted(set(self.h_levels), reverse=True))
        if not self.h_levels:
            raise ScenarioError("h_levels", "need at least one grid spacing")
        # stacklevel 3: the caller of the dataclass's generated __init__.
        if self.K < 3:
            warnings.warn(
                "K: probe ladder has fewer than three steps; trend verdicts "
                "rest on little data",
                stacklevel=3,
            )
        if self.r0 > self.cap_radius / 2:
            warnings.warn(
                "r0: largest observation radius exceeds half the cap radius; "
                "the outer oscillation window sees past the clamped set",
                stacklevel=3,
            )

    @property
    def radii(self):
        return [self.r0 * 4.0**-k for k in range(self.K + 1)]

    def deficit_radius(self):
        return self.fixed_radius if self.fixed_radius is not None else self.r0 / 4.0

    def to_dict(self):
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}


@dataclasses.dataclass
class IterationSchedule:
    """Shrinking radii and levels: r_m halves down onto r0/2, k_m drops by d.

    r_m = r0/2 + r0/2^{m+1} and k_m = k0 - d + d/2^m, both strictly
    decreasing toward their limits, as the truncation iteration requires.
    """

    y: tuple = _declared(_point)
    r0: float = _declared(_positive_number)
    k0: float = _declared(_as_number)
    d: float = _declared(_positive_number)
    n_levels: int = _declared(_count, 8)

    def __post_init__(self):
        _read_declared(self)

    def radii(self):
        return [self.r0 / 2 + self.r0 / 2 ** (m + 1) for m in range(self.n_levels + 1)]

    def levels(self):
        return [self.k0 - self.d + self.d / 2**m for m in range(self.n_levels + 1)]


# Each task's params: field -> (spec, default).  A spec is a reader; a
# nested table, for an object; a one-element list [spec], for a list of
# what spec reads; or a _Kinds.  A field whose default is ... must be
# given; every other field is in the read params, as its default when it
# is absent.
_OBSTACLE = {"obstacle": (_shape, ...), "m": (_positive_number, 1.0), "sign": (_sign, 1)}
_DIRICHLET = {"data": (_number_or_expression, ...)}
# WienerProbeConfig's fields, with m for its height; the spacings are the
# scenario's own.
_PROBE = _param_table(WienerProbeConfig, height="m", h_levels=None)
# A radial oracle's band defaults to [inner, outer] and its center to the origin.
_RADIAL_ORACLE = {
    "inner": (_positive_number, ...),
    "outer": (_positive_number, ...),
    "band": (_band, None),
    "center": (_point, None),
    "value_at": ([_as_number], ()),
}


def _radial_oracle(value, field, dim):
    """A radial oracle read through ``_RADIAL_ORACLE``, with 0 < inner <
    outer and a band [lo, hi] of lo <= hi."""
    oracle = _read(_RADIAL_ORACLE, value, field, dim)
    if not oracle["inner"] < oracle["outer"]:
        raise ScenarioError(f"{field}.inner", "need 0 < inner < outer")
    band = oracle["band"]
    if band is not None and not band[0] <= band[1]:
        raise ScenarioError(f"{field}.band", f"need lo <= hi, got {band}")
    return oracle


_CACCIOPPOLI = {"level": (_as_number, ...), "rho": (_positive_number, ...),
                "R": (_positive_number, ...)}
# IterationSchedule's fields but the point, which is the task's y; the gap
# d may also be "auto", fitted from a first schedule of gap k0/4.
_PSI_RECURSION = {**_param_table(IterationSchedule, y=None), "d": (_positive_or_auto, "auto")}


def _caccioppoli(value, field, dim):
    """A Caccioppoli block read through ``_CACCIOPPOLI``, with rho < R."""
    block = _read(_CACCIOPPOLI, value, field, dim)
    if not block["rho"] < block["R"]:
        raise ScenarioError(f"{field}.rho", "need 0 < rho < R")
    return block


def _psi_recursion(value, field, dim):
    """A psi recursion read through ``_PSI_RECURSION``, with k0 > 0 when d
    is "auto", which first fits a schedule of gap k0/4."""
    psi = _read(_PSI_RECURSION, value, field, dim)
    if psi["d"] == "auto" and not psi["k0"] > 0:
        raise ScenarioError(f"{field}.k0", 'must be positive when d is "auto"')
    return psi


# The barrier's trend factor when none is given, here and in
# ``capacity.barrier_build``.
_JJ_FACTOR = 0.5

# The tasks that run on the one grid of spacing h; the others run on each
# spacing of h_levels, or on h alone.
_ONE_GRID = ("dirichlet", "obstacle", "barrier")

# An assertion's op: the comparison it names.
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
        "==": operator.eq, "!=": operator.ne}

_PARAMS = {
    "dirichlet": {**_DIRICHLET, "oracle": ({"expr": (_expression, ...)}, None)},
    "obstacle": {**_OBSTACLE, "radial_oracle": (_radial_oracle, None)},
    "wiener-probe": _PROBE,
    "barrier": {
        "y": (_point, ...),
        "rho": (_positive_number, ...),
        "m": (_positive_number, 1.0),
        "jj_factor": (_as_number, _JJ_FACTOR),
    },
    "degiorgi-instrument": {
        "solve": (_Kinds(obstacle=_OBSTACLE, dirichlet=_DIRICHLET), ...),
        "y": (_point, ...),
        "level_sets": ([{"level": (_as_number, ...), "radius": (_positive_number, ...)}], ()),
        "caccioppoli": ([_caccioppoli], ()),
        "psi_recursion": (_psi_recursion, None),
        "oscillation": ({"r0": (_positive_number, ...), "K": (_count, ...)}, None),
        "envelope": ({"C1": (_as_number, 1.0), "lower_order": (_bool, False)}, None),
    },
    "locality": {
        "shape_b": (_shape, ...),
        "probe": (_PROBE, ...),
        "y": (_point, ...),
        "window_radius": (_positive_number, ...),
    },
}


def load_scenario(path):
    """(the scenario read by ``validate_scenario``, the file's text).  The
    JSON tokens NaN, Infinity and -Infinity are refused naming the file,
    unless a field that reads one names itself first."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read file ({exc})") from exc
    constants = []

    def constant(token):
        constants.append(token)
        return float(token)

    try:
        raw = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(str(path), "scenario must be a JSON object")
    scn = validate_scenario(raw)
    if constants:
        exc = ScenarioError(str(path), f"{constants[0]} is not a finite JSON number")
        exc.scenario, exc.task = scn["name"], scn["task"]
        raise exc
    return scn, text


def validate_scenario(raw):
    """The scenario ``raw`` with every field read, its params through
    ``_PARAMS``; the first bad field is a ScenarioError naming it."""
    name, task = raw.get("name"), raw.get("task")
    if not isinstance(name, str) or not name or any(
        c not in "abcdefghijklmnopqrstuvwxyz0123456789-_." for c in name.lower()
    ):
        raise ScenarioError("scenario.name", f"use letters, digits, '-', '_', '.', got {name!r}")
    if not isinstance(task, str) or task not in _PARAMS:
        raise ScenarioError("scenario.task", f"unknown task {task!r}; known: {sorted(_PARAMS)}")
    try:
        return {"name": name, "task": task, **_read_fields(raw, task)}
    except ScenarioError as exc:
        exc.scenario, exc.task = name, task
        raise


def _read_fields(raw, task):
    """Every field of the scenario ``raw`` but its name and task; a key it
    does not read is refused first, as ``_read`` refuses one.  ``h_levels``
    comes back as the spacings the task runs at, [h] when h is given."""
    keys = ("name", "task", "shape", "operator", "h", "h_levels", "tolerance", "params",
            "assertions")
    for key in raw:
        if key not in keys:
            raise ScenarioError(f"scenario.{key}", f"unknown key; known: {', '.join(keys)}")
    shape = _shape(raw.get("shape"), "scenario.shape")
    op = raw.get("operator", {"kind": "p_laplace", "t": 2.0})
    if not isinstance(op, dict):
        raise ScenarioError("scenario.operator", "expected an object")
    known = [f.name for f in dataclasses.fields(OperatorSpec)]
    for key in op:
        if key not in known:
            raise ScenarioError(
                "scenario.operator", f"unknown key {key!r}; known: {', '.join(known)}"
            )
    try:
        spec = OperatorSpec(**op)
    except ValueError as exc:
        raise ScenarioError("scenario.operator", str(exc)) from exc
    h, h_levels = raw.get("h"), raw.get("h_levels")
    if h is None and h_levels is None:
        raise ScenarioError("scenario.h", "need h or h_levels")
    if h is not None:
        h = _positive_number(h, "scenario.h")
    if h_levels is None:
        h_levels = [h]
    else:
        h_levels = _read([_positive_number], h_levels, "scenario.h_levels", None)
        if not h_levels or any(b >= a for a, b in zip(h_levels, h_levels[1:])):
            raise ScenarioError("scenario.h_levels", "must be nonempty and strictly decreasing")
        if h is not None:
            raise ScenarioError("scenario.h_levels", "give h or h_levels, not both")
        if task in _ONE_GRID:
            raise ScenarioError("scenario.h_levels", f"{task} runs on one grid: give h")
    tol = _positive_number(raw.get("tolerance", 1e-8), "scenario.tolerance")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("scenario.params", "expected an object")
    assertions = raw.get("assertions", [])
    if not isinstance(assertions, list):
        raise ScenarioError("scenario.assertions", "expected a list")
    for i, a in enumerate(assertions):
        if not isinstance(a, dict) or "path" not in a or "op" not in a or "value" not in a:
            raise ScenarioError(
                f"scenario.assertions[{i}]", "each assertion needs path, op, value"
            )
        if not isinstance(a["path"], str):
            raise ScenarioError(f"scenario.assertions[{i}].path", "expected a string")
        if not isinstance(a["op"], str) or a["op"] not in _OPS:
            raise ScenarioError(f"scenario.assertions[{i}].op", f"unknown op {a['op']!r}")
    return {
        "shape": shape,
        "spec": spec,
        "h": h,
        "h_levels": h_levels,
        "tol": tol,
        "params": _read(_PARAMS[task], params, "params", shape.dim),
        "assertions": assertions,
    }
