"""Run configuration: strict JSON validation against the shipped schema.

Unknown keys are rejected (additionalProperties is false), so typos fail
loudly instead of silently falling back to defaults. Validation errors name
the offending field by its dotted path.
"""

import json
import math
import os
from functools import cache
from importlib import resources

import jsonschema

from .errors import DomainError, ParseError, SchemaError
from .micro import GRADUAL, SimParams, gradual_steps

DEFAULTS = {
    "n": 128,
    "d": 1.0,
    "model": "gradual",
    "representation": "matrix",
    "box": 10.0,
    "radius": 1.0,
    "kernel": "indicator",
    "dt": 2e-3,
    "t_end": 1.0,
    "seed": 0,
    "save_every": 1,
    "replicas": 1,
}

MACRO_DEFAULTS = {
    "grid": [64, 1, 1],
    "length": float(2.0 * 3.141592653589793),
    "viscosity": 0.5,
    "rho_amp": 0.2,
    "alpha": 0.3,
    "beta": 0.3,
    "dt": 0.01,
    "t_end": 1.0,
}


@cache
def schema():
    """The JSON schema shipped with the package (parsed once)."""
    return json.loads(resources.files("sohb").joinpath("config_schema.json").read_text())


def _error_path(err):
    return ".".join(str(p) for p in err.absolute_path)


def _is_finite_number(checker, instance):
    """A finite number: Python's json also reads NaN and Infinity."""
    finite = not isinstance(instance, float) or math.isfinite(instance)
    return finite and jsonschema.Draft202012Validator.TYPE_CHECKER.is_type(instance, "number")


#: Draft 2020-12 with finite numbers only.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine("number", _is_finite_number),
)


def validate_data(data):
    """All violations as "path: message" strings (empty if valid).

    A ``number`` must be finite: NaN and infinities fail its type. A config
    that passes the schema is then checked, with its defaults filled in, on
    the rules that span fields: a frame log (``out``) holds one run, so it
    needs ``replicas`` = 1, and a gradual ``t_end`` must be a whole number of
    steps of ``dt``.
    """
    validator = _Validator(schema())
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        return [f"{_error_path(e) or '<root>'}: {e.message}" for e in errors]
    cfg = {**DEFAULTS, **data}
    problems = []
    if "out" in cfg and cfg["replicas"] != 1:
        problems.append("out: a frame log holds one run; it needs replicas = 1")
    if cfg["model"] == GRADUAL:
        try:
            gradual_steps(0.0, cfg["t_end"], cfg["dt"])
        except DomainError as exc:
            problems.append(str(exc))
    return problems


def read_json(path):
    """The JSON document in the file at ``path``.

    Raises:
        ParseError: the file is not valid JSON.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_config(source):
    """Load, validate, and default-fill a configuration.

    Args:
        source: path to a JSON file, or an already-parsed document.

    Returns:
        dict with every top-level default applied (and macro defaults applied
        inside the "macro" block when present).

    Raises:
        ParseError: the file is not valid JSON.
        SchemaError: the first violation (see ``validate_data``), with
            ``path`` set.
    """
    data = read_json(source) if isinstance(source, (str, os.PathLike)) else source
    problems = validate_data(data)
    if problems:
        first = problems[0]
        path = first.split(":", 1)[0]
        raise SchemaError(first, path="" if path == "<root>" else path)
    merged = {**DEFAULTS, **data}
    if "macro" in merged:
        merged["macro"] = {**MACRO_DEFAULTS, **merged["macro"]}
    return merged


def sim_params_from_config(cfg):
    """Translate a validated config dict into micro-simulation parameters."""
    return SimParams(
        n_particles=cfg["n"],
        d=cfg["d"],
        box=cfg["box"],
        radius=cfg["radius"],
        kernel=cfg["kernel"],
        dt=cfg["dt"],
        model=cfg["model"],
        representation=cfg["representation"],
    )
