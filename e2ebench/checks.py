"""Oracle expectations for a workload, and the checks of one round's reports.

Each check returns "ok", "underflow" or "wrong". "underflow" marks a wrong
answer whose cause the check can see: the program's linear-space
arithmetic rounded every kernel entry it needed to 0.0 while the oracle,
in log space, has the true value (ROADMAP item 2). Such an operation
counts as failed. "wrong" is any other disagreement and makes the run
incorrect.

A probability whose true value lies below the float64 normal range is
correctly reported as any value in [0, 1e-300], so a plain estimate that
underflows is "ok", not a failure.
"""

import math
import sys

import numpy as np

import oracle

RTOL = 1e-9
SAFE_LOG = -700.0  # above this, subnormal rounding moves a sum by < 1e-15
LOG_NORMAL = math.log(sys.float_info.min)
LOG_ZERO = -745.2  # math.exp is exactly 0.0 below about -745.13


def _close(value, expected, slack):
    return abs(value - expected) <= slack


def _num(x):
    return float(x) if x is not None else math.nan


# ---------------------------------------------------------------------------
# expectations


def _wide(estimator, rows):
    if estimator["variant"] == "waak":
        w = np.broadcast_to(np.asarray(estimator["w"], dtype=np.float64), (rows.shape[1],))
        return {**estimator, "w": w}
    return estimator


def _descent_expectation(job, wl):
    search = job.search
    grid = [float(v) for v in search["grid"]]

    def risk(w, gamma):
        return oracle.wide_risk({"variant": "waak", "w": w, "gamma": gamma}, job.loss, wl.rows, wl.counts)["value"]

    finals = []
    for gamma in search["gammas"]:
        initial = np.full(wl.n, float(search.get("initial", grid[0])))
        w, value, converged = oracle.descent(initial, gamma, grid, int(search["sweeps"]), risk, job.loss)
        finals.append({"gamma": gamma, "w": w, "value": value, "converged": converged})
    better = (lambda a, b: a > b) if job.loss == "kl" else (lambda a, b: a < b)
    best = 0
    for pos in range(1, len(finals)):
        if better(finals[pos]["value"], finals[best]["value"]):
            best = pos
    fit = {"variant": "waak", "gamma": finals[best]["gamma"], "w": [float(v) for v in finals[best]["w"]]}
    return {"kind": "descent", "finals": finals, "risk": risk, "grid": grid, "best": best, "fit": fit}


def _grid_expectation(job, wl, cells, dense):
    rows = []
    for cand in job.candidates:
        if dense is not None:
            estimate = sum(c["weight"] * dense[i]["estimate"] for i, c in enumerate(cand["components"]))
            g0 = sum(c["weight"] * dense[i]["g0"] for i, c in enumerate(cand["components"]))
            value, magnitude = oracle.dense_risk(estimate, g0, cells, wl.counts, job.loss)
            rows.append({"value": value, "magnitude": magnitude, "min_log_term": 0.0, "min_max_entry": 0.0})
        else:
            rows.append(oracle.wide_risk(_wide(cand, wl.rows), job.loss, wl.rows, wl.counts))
    values = [r["value"] for r in rows]
    best = int(np.argmax(values) if job.loss == "kl" else np.argmin(values))
    return {"kind": "grid", "rows": rows, "best": best, "fit": job.candidates[best]}


def expectations(wl):
    """Everything the checks compare against, computed once per run."""
    cells = [oracle.cell_index(r) for r in wl.rows]
    dense = None
    if wl.estimate_rows is None:
        comps = wl.cv_jobs[0].search["components"]
        dense = []
        for comp in comps:
            g = oracle.profile(comp, wl.n)
            dense.append({"g0": g[0], "estimate": oracle.dense_estimate(g, cells, wl.counts)})
    jobs = {}
    for job in wl.cv_jobs:
        if job.search["kind"] == "waak_descent":
            jobs[job.name] = _descent_expectation(job, wl)
        else:
            jobs[job.name] = _grid_expectation(job, wl, cells, dense)
    fit = jobs[wl.fit_job]["fit"]
    exp = {"jobs": jobs, "fit": fit}
    if dense is not None:
        full = sum(c["weight"] * dense[i]["estimate"] for i, c in enumerate(fit["components"]))
        exp["full"] = full

        def log_at(rows):
            return np.log(full[np.array([oracle.cell_index(r) for r in rows]) - 1])
    else:
        def log_at(rows):
            return oracle.wide_log_estimate(_wide(fit, wl.rows), np.asarray(rows), wl.rows, wl.counts)
        exp["estimate_log"] = log_at(wl.estimate_rows)
    exp["query_log"] = log_at(wl.query_rows)
    plus, minus = [], []
    for row, pos in wl.conditionals:
        p, m = row.copy(), row.copy()
        p[pos], m[pos] = 1, -1
        plus.append(p)
        minus.append(m)
    if wl.conditionals:
        exp["cond_log"] = (log_at(plus), log_at(minus))
        exp["cond_cells"] = [(oracle.cell_index(p), oracle.cell_index(m)) for p, m in zip(plus, minus)]
    return exp


def query_spec(wl):
    """The --cells argument: plain cells first, then the conditionals."""
    items = [oracle.sign_label(r) for r in wl.query_rows]
    for row, pos in wl.conditionals:
        label = oracle.sign_label(row)
        items.append(label[:pos] + "?" + label[pos + 1:])
    return ",".join(items)


# ---------------------------------------------------------------------------
# checks


def check_probability(value, log_true):
    if not isinstance(value, (int, float)) or math.isnan(value):
        return "wrong"
    if log_true > SAFE_LOG:
        return "ok" if _close(value, math.exp(log_true), RTOL * math.exp(log_true)) else "wrong"
    if log_true < LOG_NORMAL:
        return "ok" if 0.0 <= value <= 1e-300 else "wrong"
    return "ok" if _close(value, math.exp(log_true), 1e-6 * math.exp(log_true) + 1e-300) else "wrong"


def check_risk(row_value, row_dominated, e, loss):
    value = _num(row_value)
    if loss == "kl" and value == -math.inf and row_dominated:
        # every entry of some held-out term is 0.0 in float64
        return "ok" if e["min_max_entry"] < SAFE_LOG else "wrong"
    if e["min_log_term"] > SAFE_LOG:
        return "ok" if _close(value, e["value"], RTOL * e["magnitude"]) else "wrong"
    return "ok" if _close(value, e["value"], 1e-6 * e["magnitude"] + 1e-300) else "wrong"


def _same_estimator(got, want, n):
    if got.get("variant") != want["variant"]:
        return False
    if want["variant"] == "aa_classic":
        return got.get("lambda") == want["lambda"]
    if want["variant"] == "waak":
        w = np.broadcast_to(np.asarray(want["w"], dtype=np.float64), (n,))
        return got.get("gamma") == want["gamma"] and np.array_equal(np.asarray(got.get("w")), w)
    return [c["weight"] for c in got.get("components", [])] == [c["weight"] for c in want["components"]]


def _better_or_tied(a, b, loss, magnitude):
    slack = RTOL * magnitude
    return a >= b - slack if loss == "kl" else a <= b + slack


def check_grid_report(report, job, e, n):
    """One outcome per candidate row, then one for the selection."""
    rows = {r.get("candidate_index"): r for r in report["evaluations"]}
    out = []
    for pos, cand in enumerate(job.candidates):
        row = rows.get(pos)
        if row is None or not _same_estimator(row["estimator"], cand, n):
            out.append("wrong")
            continue
        out.append(check_risk(row["value"], row["dominated"], e["rows"][pos], job.loss))
    chosen = [pos for pos, cand in enumerate(job.candidates) if _same_estimator(report["best"]["estimator"], cand, n)]
    best = e["rows"][e["best"]]
    if chosen and _better_or_tied(e["rows"][chosen[0]]["value"], best["value"], job.loss, best["magnitude"]):
        out.append("ok")
    elif (chosen and _num(report["best"]["value"]) == -math.inf
          and _num(rows.get(e["best"], {}).get("value")) == -math.inf and best["min_max_entry"] < LOG_ZERO):
        out.append("underflow")  # the tie among underflowed candidates kept the first one
    else:
        out.append("wrong")
    return out


def check_descent_report(report, job, e, n):
    """One outcome per gamma (risk, and local optimality after a quiet sweep), then the selection."""
    out, values = [], []
    by_gamma = {row.get("gamma"): row for row in report["evaluations"]}
    better = (lambda a, b: a > b) if job.loss == "kl" else (lambda a, b: a < b)
    for final in e["finals"]:
        row = by_gamma.get(final["gamma"])
        if row is None:
            out.append("wrong")
            values.append(None)
            continue
        w = np.asarray(row["estimator"]["w"], dtype=np.float64)
        value = e["risk"](w, final["gamma"])
        values.append(value)
        status = "ok" if _close(_num(row["value"]), value, RTOL * abs(value)) else "wrong"
        if status == "ok" and final["converged"]:
            for d in range(n):
                for v in e["grid"]:
                    if v == w[d]:
                        continue
                    trial = w.copy()
                    trial[d] = v
                    moved = e["risk"](trial, final["gamma"])
                    if better(moved, value) and abs(moved - value) > RTOL * abs(value):
                        status = "wrong"
        out.append(status)
    known = [v for v in values if v is not None]
    chosen = [i for i, f in enumerate(e["finals"]) if report["best"]["estimator"].get("gamma") == f["gamma"]]
    if chosen and values[chosen[0]] is not None and known and _better_or_tied(
            values[chosen[0]], max(known) if job.loss == "kl" else min(known), job.loss, abs(values[chosen[0]])):
        out.append("ok")
    else:
        out.append("wrong")
    return out


def check_estimate_report(report, wl, exp):
    block = report["estimate"]
    if wl.estimate_rows is None:
        values = np.asarray(block["values"], dtype=np.float64)
        full = exp["full"]
        ok = (block["full"] and values.shape == full.shape and abs(math.fsum(values) - 1.0) <= 1e-12
              and np.allclose(values, full, rtol=RTOL, atol=0.0))
        return ["ok" if ok else "wrong"]
    out = []
    want = [oracle.cell_index(r) for r in wl.estimate_rows]
    got = [int(c) for c in block.get("cells", [])]
    for pos, cell in enumerate(want):
        if pos >= len(got) or got[pos] != cell:
            out.append("wrong")
            continue
        out.append(check_probability(block["values"][pos], exp["estimate_log"][pos]))
    return out


def check_query_report(report, wl, exp):
    results = report["query"]["results"]
    out = []
    for pos, row in enumerate(wl.query_rows):
        entry = results[pos] if pos < len(results) else {}
        if "cell" not in entry or int(entry["cell"]) != oracle.cell_index(row):
            out.append("wrong")
            continue
        out.append(check_probability(entry["value"], exp["query_log"][pos]))
    for k in range(len(wl.conditionals)):
        pos = len(wl.query_rows) + k
        entry = results[pos] if pos < len(results) else {}
        lp, lm = exp["cond_log"][0][k], exp["cond_log"][1][k]
        if [int(c) for c in entry.get("cells", [])] != list(exp["cond_cells"][k]):
            out.append("wrong")
            continue
        states = [check_probability(v, lt) for v, lt in zip(entry["values"], (lp, lm))]
        if "wrong" in states:
            out.append("wrong")
        elif entry["undefined"]:
            out.append("underflow" if max(lp, lm) < LOG_NORMAL and entry["values"] == [0.0, 0.0] else "wrong")
        else:
            truth = oracle.conditional(lp, lm)
            slack = 1e-9 if min(lp, lm) > SAFE_LOG else 1e-6
            out.append("ok" if _close(entry["conditional_expectation"], truth, slack) else "wrong")
    return out
