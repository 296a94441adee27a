"""Span recording around the calls into each h2mpc layer.

The benchmark does not modify the package. It replaces module and class
attributes (``ocp.build``, ``rollout.solve``, the ``OcpProblem``
evaluators, ``scipy.sparse.linalg.splu`` and so on) with wrappers that
open a span, call the original and close the span. Spans stay in memory
as ``[name, start, end, parent, info]`` lists and are written out once the
run ends.

A controller-step span opens at every ``ocp.build`` call and stays open
until the next build or the end of the enclosing ``rollout.run``, so the
step's build, start point, solve attempts, simulator step and settlement
spans all nest under it. Where a layer calls itself through a wrapped
name (``warm_start_from`` calls ``cold_start``), only the outermost span
counts toward the layer's time and call count.

Line-search trials have no public boundary of their own: they are counted,
without a span, at the solver's residual-only constraint evaluation.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

STEP = "step"

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.logs: list = []  # every TrajectoryLog rollout.run returned
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, _clock(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        """Close span ``sid`` and any span still open inside it (a step)."""
        now = _clock()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == sid:
                return

    def _open_step(self) -> None:
        if self._stack and self.spans[self._stack[-1]][0] == STEP:
            self.close(self._stack[-1])
        self.open(STEP)

    def wrap(self, owner, attr: str, name: str, note=None, opens_step: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``note(args, kwargs, result)`` may return a dict stored on the span.
        """
        orig = owner.__dict__[attr]
        is_cm = isinstance(orig, classmethod)
        fn = orig.__func__ if is_cm else orig

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_step:
                self._open_step()
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if note is not None:
                self.spans[sid][4] = note(args, kwargs, out)
            return out

        setattr(owner, attr, classmethod(traced) if is_cm else traced)
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr: str, name: str, when) -> None:
        """Replace ``owner.attr`` with a wrapper that counts, without a span,
        the calls for which ``when(args, kwargs)`` is true."""
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if when(args, kwargs):
                self.counts[name] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "info": s[4]}
             for i, s in enumerate(self.spans)]
        ))


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the layer boundaries the metrics are taken from.

    Without ``full`` only ``rollout.run`` and ``ocp.build`` are wrapped: one
    clock read per controller step, which step latency and per-strategy
    day time need. With ``full`` every boundary of the per-layer metrics is.
    """
    import scipy.sparse.linalg as spla

    from h2mpc import analysis, cli, electrolyzer, market, ocp, rollout, solver
    from h2mpc.ocp import OcpProblem
    from h2mpc.rollout import TrajectoryLog

    def solve_note(args, kwargs, sol):
        return {"iterations": sol.iterations, "status": sol.status,
                "warm": args[2].initialization == "warm"}

    def run_note(args, kwargs, log):
        tracer.logs.append(log)
        days = (args[5] - args[4]).days + 1
        return {"strategy": log.strategy, "days": days}

    def csv_note(args, kwargs, out):
        return {"bytes": Path(args[1]).stat().st_size}

    def kde_note(args, kwargs, out):
        return {"samples": len(out[2])}

    def cli_note(args, kwargs, code):
        argv = args[0]
        return {"kind": argv[3] if argv[0] == "analyze" else argv[0], "exit": code}

    w = tracer.wrap
    w(rollout, "run", "rollout.run", note=run_note)
    w(ocp, "build", "ocp.build", opens_step=True)
    if not full:
        return
    w(ocp, "cold_start", "ocp.start")
    w(ocp, "warm_start_from", "ocp.start")
    w(rollout, "solve", "solver.solve", note=solve_note)
    w(OcpProblem, "objective_and_gradient", "ocp.obj")
    w(OcpProblem, "constraints_residual", "ocp.res")
    w(OcpProblem, "constraints_and_jacobian", "ocp.jac")
    w(spla, "splu", "solver.splu")
    # the line search is the one caller that asks for residuals only; the
    # feasibility measure evaluates residuals too, but is no trial
    tracer.count(solver._ScaledNlp, "constraints", "solver.trial",
                 lambda args, kwargs: kwargs.get("need_jac", True) is False)
    w(electrolyzer, "step", "electrolyzer.step")
    w(rollout, "settle", "market.settle")
    w(market, "load_price_csv", "market.load_price_csv")
    w(TrajectoryLog, "to_csv", "rollout.to_csv", note=csv_note)
    w(TrajectoryLog, "from_csv", "rollout.from_csv")
    for cum in ("cum_elec", "cum_mem", "cum_h2"):
        w(TrajectoryLog, cum, "rollout.cum")
    w(analysis, "write_lcoh_csv", "analysis.lcoh")
    w(analysis, "write_kde_csv", "analysis.kde")
    w(analysis, "kde_current_density", "analysis.kde_density", note=kde_note)
    w(analysis, "write_cumulative_costs_csv", "analysis.cumcost")
    w(cli, "main", "cli.main", note=cli_note)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name after the layer."""
    what = name.split(".")[1]
    if what.endswith("_s"):
        return "s"
    if what.endswith("_ms") or what.startswith("ms_"):
        return "ms"
    if what.endswith("_bytes"):
        return "bytes"
    if what.endswith(("_ratio", "_per_iter")):
        return "ratio"
    return "count"


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], counts: dict[str, int]) -> tuple[dict[str, float], dict[str, float], bool]:
    """Per-layer metrics, self time by span name, and whether every child fits its parent."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    nested_ok = all(child_time[i] <= s[2] - s[1] + 1e-9 for i, s in enumerate(spans))

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_t: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        self_t[s[0]] += dur - child_time[i]
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            total[s[0]] += dur
            calls[s[0]] += 1

    solves = [s for s in spans if s[0] == "solver.solve"]
    iterations = sum(s[4]["iterations"] for s in solves)
    step_solve_ms: dict[int, float] = defaultdict(float)
    for s in solves:
        step_solve_ms[s[3]] += 1000.0 * (s[2] - s[1])
    per_step = sorted(step_solve_ms.values())

    m: dict[str, float] = {
        "solver.solve_s": total["solver.solve"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.self_s": self_t["solver.solve"],
        "solver.iterations": iterations,
        "solver.ms_per_iter": 1000.0 * total["solver.solve"] / iterations if iterations else 0.0,
        "solver.solve_ms.p50": _percentile(per_step, 50),
        "solver.solve_ms.p97": _percentile(per_step, 97),
        "solver.solve_steps": len(per_step),
        "solver.splu_s": total["solver.splu"],
        "solver.splu_calls": calls["solver.splu"],
        "solver.trials_per_iter": counts["solver.trial"] / iterations if iterations else 0.0,
        "solver.ok_ratio": (sum(s[4]["status"] == "optimal" for s in solves) / len(solves)
                            if solves else 0.0),
        "solver.warm_retries": sum(s[4]["warm"] and s[4]["status"] != "optimal" for s in solves),
    }
    for key, name in [("build", "ocp.build"), ("start", "ocp.start"), ("jac", "ocp.jac"),
                      ("res", "ocp.res"), ("obj", "ocp.obj")]:
        m[f"ocp.{key}_s"] = total[name]
        m[f"ocp.{key}_calls"] = calls[name]
    m["electrolyzer.step_s"] = total["electrolyzer.step"]
    m["electrolyzer.step_calls"] = calls["electrolyzer.step"]
    m["market.load_price_csv_s"] = total["market.load_price_csv"]
    m["market.settle_s"] = total["market.settle"]

    runs = [s for s in spans if s[0] == "rollout.run"]
    m["rollout.run_s"] = total["rollout.run"]
    # the loop's own work: what run and its step spans spend outside the
    # build, start, solve, simulator and settlement calls
    m["rollout.self_s"] = self_t["rollout.run"] + self_t[STEP]
    for strategy in ("hf-ms", "hf-ss", "lf-ms", "co"):
        mine = [s for s in runs if s[4] and s[4]["strategy"] == strategy]
        days = sum(s[4]["days"] for s in mine)
        m[f"rollout.sim_day_s.{strategy}"] = sum(s[2] - s[1] for s in mine) / days if days else 0.0
    m["rollout.to_csv_s"] = total["rollout.to_csv"]
    m["rollout.from_csv_s"] = total["rollout.from_csv"]
    m["rollout.cum_s"] = total["rollout.cum"]
    m["rollout.csv_bytes"] = sum(s[4]["bytes"] for s in spans if s[0] == "rollout.to_csv" and s[4])

    m["analysis.lcoh_s"] = total["analysis.lcoh"]
    m["analysis.kde_s"] = total["analysis.kde"]
    m["analysis.cumcost_s"] = total["analysis.cumcost"]
    m["analysis.kde_samples"] = sum(
        s[4]["samples"] for s in spans if s[0] == "analysis.kde_density" and s[4])

    for kind in ("lcoh", "kde", "cumcost"):
        mains = [i for i, s in enumerate(spans)
                 if s[0] == "cli.main" and s[4] and s[4]["kind"] == kind]
        m[f"cli.main_s.{kind}"] = sum(spans[i][2] - spans[i][1] for i in mains)
        m[f"cli.self_s.{kind}"] = sum(
            spans[i][2] - spans[i][1] - child_time[i] for i in mains)
    return m, dict(self_t), nested_ok
