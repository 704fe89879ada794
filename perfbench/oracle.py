"""Report checks: expected outcomes, certificate invariants and verdict counts.

``check_report`` returns None for a report that matches its scenario and a
one-line reason otherwise.  Beyond the analytic expectations each scenario
carries, every JSON report must satisfy the certificate invariants: a
``ProvedConvergent`` verdict has a finite, nonnegative tail bound, a
``ProvedDivergent`` verdict names its witness, and residuals stay within the
scenario tolerance.
"""

from __future__ import annotations

import json
import math

VERDICT_KEYS = ("verdict", "conclusion", "holds", "status", "tensor_exists")
SETTLED = frozenset({"ProvedConvergent", "ProvedDivergent", "Certified", "Refuted",
                     "InnerCertified", "OuterCertified", "Obstructed",
                     "NotObstructed"})


def verdict_counts(result) -> tuple[int, int]:
    """(settled, total) over every verdict field in a JSON result tree."""
    settled = total = 0
    stack = [result]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            for key, value in node.items():
                if key in VERDICT_KEYS and isinstance(value, str):
                    total += 1
                    settled += value in SETTLED
                else:
                    stack.append(value)
        elif isinstance(node, list):
            stack.extend(node)
    return settled, total


def _lookup(result, path):
    node = result
    for key in path:
        node = node[key]
    return node


def _certificate_problem(result) -> str | None:
    # float() also reads the strings "inf", "-inf" and "nan" that reports
    # print for non-finite floats.
    stack = [result]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            verdict = node.get("verdict")
            if verdict == "ProvedConvergent":
                bound = node.get("tail_bound")
                if bound is None or not (0.0 <= float(bound) < math.inf):
                    return f"proved convergent with tail bound {bound!r}"
            elif verdict == "ProvedDivergent" and not node.get("witness"):
                return "proved divergent without a witness"
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return None


def _check_csv(scenario, text: str) -> str | None:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("# scenario=") or lines[1] != "index,term,partial_sum,bound":
        return "CSV header malformed"
    rows = lines[2:]
    if len(rows) != scenario.rows:
        return f"CSV has {len(rows)} rows, expected {scenario.rows}"
    previous = 0.0
    for k, row in enumerate(rows, 1):
        cells = row.split(",")
        if len(cells) != 4 or int(cells[0]) != k:
            return f"CSV row {k} malformed"
        term, partial = float(cells[1]), float(cells[2])
        if term < 0.0 or partial < previous * (1.0 - 1e-12):
            return f"CSV row {k}: negative term or falling partial sum"
        previous = partial
    return None


def _check_json(scenario, text: str) -> str | None:
    report = json.loads(text)
    if report.get("command") != scenario.command:
        return f"report command {report.get('command')!r}"
    result = report["result"]
    for path, expected in scenario.expect:
        try:
            got = _lookup(result, path)
        except (KeyError, IndexError, TypeError):
            return f"missing result field {'.'.join(map(str, path))}"
        if got != expected:
            return f"{'.'.join(map(str, path))} = {got!r}, expected {expected!r}"
    tol = report["scenario"]["tolerances"]["tol"]
    for key in scenario.residuals:
        value = result.get(key)
        if value is not None and not float(value) <= tol:
            return f"{key} = {value!r} exceeds tol {tol}"
    if scenario.select_count is not None:
        steps = result["steps"]
        indices = [s["index"] for s in steps]
        if len(steps) != scenario.select_count:
            return f"select accepted {len(steps)} steps, expected {scenario.select_count}"
        if any(b <= a for a, b in zip(indices, indices[1:])):
            return "select indices are not increasing"
        if any(not s["sup"] <= s["threshold"] for s in steps):
            return "select accepted a candidate above its threshold"
    return _certificate_problem(result)


def check_report(scenario, exit_code: int, text: str | None) -> str | None:
    """None when the report matches the scenario, else the first mismatch."""
    if exit_code != scenario.exit_code:
        return f"exit code {exit_code}, expected {scenario.exit_code}"
    if text is None:
        return None
    try:
        if scenario.rows is not None:
            return _check_csv(scenario, text)
        return _check_json(scenario, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
