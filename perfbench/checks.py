"""Output checks for one CLI command; any problem counts the command as failed.

Every config the benchmark runs has a unit-mass convolution kernel and an
eligible potential, so each report must carry a passing gap verdict and an
eigenvalue inside (-alpha1, 0).
"""

from __future__ import annotations

import json
import os

# The first artifact of each command is the JSON report its check reads.
ARTIFACTS = {
    "analyze": ["report.json"],
    "bound": ["gap_bound.json"],
    "check-kernel": ["kernel_check.json"],
    "evolve": ["evolution.json", "trace.csv"],
}
DECAY_FIT_TOL = 1e-6


def without_metadata(text: str) -> str:
    """Report text up to the ``metadata`` block, which the writer puts last."""
    return text.split('\n  "metadata": ')[0]


def read_artifacts(kind: str, out_dir: str) -> dict:
    """Artifact texts of one command, keyed by file name; missing files are absent."""
    texts = {}
    for name in ARTIFACTS[kind]:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path) as handle:
                texts[name] = handle.read()
    return texts


def _lambda_problems(lam: float, by_method: dict, cross_tol: float, expect: dict) -> list[str]:
    problems = []
    values = [lam, *by_method.values()]
    spread = max(values) - min(values)
    if not spread <= cross_tol:
        problems.append(f"lambda and lambda_by_method spread {spread:.3e} beyond cross_tol {cross_tol:.0e}")
    if "lambda" in expect and not abs(lam - expect["lambda"]) <= cross_tol:
        problems.append(f"lambda {lam!r} is not within cross_tol of {expect['lambda']!r}")
    return problems


def _check_analyze(doc: dict, expect: dict) -> list[str]:
    lam = doc["lambda"]
    problems = _lambda_problems(lam, doc["lambda_by_method"],
                                doc["config_echo"]["analysis"]["cross_tol"], expect)
    alpha1 = doc["essential"]["alpha1"]
    if not -alpha1 < lam < 0.0:
        problems.append(f"lambda {lam!r} outside (-alpha1, 0) = ({-alpha1!r}, 0)")
    gap = doc["gap_bound"]
    if gap is None or gap["verdict"] != "pass":
        problems.append(f"gap verdict is {None if gap is None else gap['verdict']!r}, not 'pass'")
    return problems


def _check_bound(doc: dict, expect: dict) -> list[str]:
    gap = doc["gap_bound"]
    lam = gap["lambda"]
    problems = _lambda_problems(lam, doc["lambda_by_method"],
                                doc["config_echo"]["analysis"]["cross_tol"], expect)
    if not lam < 0.0:
        problems.append(f"lambda {lam!r} is not negative")
    if gap["verdict"] != "pass":
        problems.append(f"gap verdict is {gap['verdict']!r}, not 'pass'")
    return problems


def _check_kernel(doc: dict, expect: dict) -> list[str]:
    problems = []
    if doc["kernel_error"] is not None or doc["kernel_stats"] is None:
        problems.append(f"kernel check failed: {doc['kernel_error']}")
    elif "primitive_power" in expect and doc["kernel_stats"]["primitive_power"] != expect["primitive_power"]:
        problems.append(f"primitive power {doc['kernel_stats']['primitive_power']} "
                        f"is not {expect['primitive_power']}")
    if not doc["potential"]["eligible"]:
        problems.append("potential reported ineligible")
    return problems


def _check_evolve(doc: dict, expect: dict) -> list[str]:
    problems = []
    if not doc["extinction"]["extinct"]:
        problems.append("trajectory is not extinct")
    if not doc["min_value_seen"] >= 0.0:
        problems.append(f"min_value_seen {doc['min_value_seen']!r} is negative")
    fit, lam = doc["decay_rate_fit"], doc["lambda_estimate"]
    if fit is None or not abs(fit - lam) <= DECAY_FIT_TOL:
        problems.append(f"decay_rate_fit {fit!r} is off lambda_estimate {lam!r} by more than {DECAY_FIT_TOL}")
    return problems


CHECKS = {
    "analyze": _check_analyze,
    "bound": _check_bound,
    "check-kernel": _check_kernel,
    "evolve": _check_evolve,
}


def check_command(command: dict, exit_code: int, texts: dict, reference: dict | None) -> list[str]:
    """Problems with one command's outcome; an empty list means it passed.

    ``reference`` holds the artifact texts of the same command in the run's
    first pass; a repeat must match them byte for byte outside ``metadata``.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in ARTIFACTS[command["kind"]] if name not in texts]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        problems = CHECKS[command["kind"]](json.loads(texts[ARTIFACTS[command["kind"]][0]]), command["expect"])
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed report: {type(exc).__name__}: {exc}"]
    if reference is not None:
        for name, text in texts.items():
            if without_metadata(text) != without_metadata(reference.get(name, "")):
                problems.append(f"{name} differs from the first run outside metadata")
    return problems
