"""The benchmark's workloads: inputs from a seed, one op, its checks.

Every call into replitest goes through a module attribute
(``experiments.closeness_pair_fn``, ``independence.rep_independence_test``,
``walks.estimate_mixing``) so that the span recorder's wrappers see it.
A workload is built after the wrappers are installed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from replitest import experiments, independence, walks
from replitest.calibrated import CLOSENESS_DESK, INDEPENDENCE_DESK, UNIFORMITY_DESK
from replitest.closeness import ClosenessConfig
from replitest.independence import IndependenceConfig
from replitest.measures import (
    diagonal_measure,
    half_flat_measure,
    uniform_measure,
    uniform_product_measure,
)
from replitest.rng import RngStream
from replitest.uniformity import UniformityConfig

MIXING_REFERENCE = Path(__file__).with_name("mixing_reference.json")


class Replicability1D:
    """One op: one pair of runs sharing internal randomness on each of
    five settings (criteria 2 and 15)."""

    name = "replicability-1d"
    cycle = 1
    digest_ops = 200
    rho = 0.1

    def __init__(self, seed: int) -> None:
        closeness = ClosenessConfig(n=500, epsilon=0.3, rho=self.rho, **CLOSENESS_DESK)
        full = UniformityConfig(n=2000, epsilon=0.25, rho=self.rho, **UNIFORMITY_DESK)
        reduced = UniformityConfig(
            n=2000, epsilon=0.25, rho=self.rho, **{**UNIFORMITY_DESK, "m_scale": 0.05}
        )
        uniform = uniform_measure(500)
        # (label, pair function, calibrated): a calibrated setting must
        # replicate, the 5%-budget one must not.
        self.settings = [
            ("closeness-uniform", experiments.closeness_pair_fn(uniform, uniform, closeness), True),
            ("closeness-far",
             experiments.closeness_pair_fn(uniform, half_flat_measure(500), closeness), True),
            ("closeness-hard-meta",
             experiments.closeness_meta_pair_fn(500, 100, 0.3, closeness), True),
            ("uniformity-xi0", experiments.uniformity_meta_pair_fn(2000, 0.25, full, 0.0), True),
            ("uniformity-5pct-xi0.1",
             experiments.uniformity_meta_pair_fn(2000, 0.25, reduced, 0.1), False),
        ]
        self.root = RngStream(seed, f"bench/{self.name}")

    def _round(self, stream: RngStream) -> list[list[int]]:
        return [[int(a), int(b)] for a, b in
                (fn(stream.substream(label)) for label, fn, _ in self.settings)]

    def warm_up(self) -> None:
        self._round(self.root.substream("warm-up"))

    def op(self, i: int) -> list[list[int]]:
        return self._round(self.root.substream("op", i))

    def check_op(self, out) -> str | None:
        return None

    def checks(self, outs: list) -> list[dict]:
        result = []
        for k, (label, _, calibrated) in enumerate(self.settings):
            pairs = len(outs)
            rate = sum(o[k][0] != o[k][1] for o in outs) / pairs
            se = math.sqrt(max(rate * (1 - rate), 1e-12) / pairs)
            if calibrated:
                ok, rule = rate <= self.rho + 3 * se, f"<= rho + 3se = {self.rho + 3 * se:.4f}"
            else:
                ok, rule = rate >= self.rho, f">= rho = {self.rho}"
            result.append({"check": f"disagreement {label}", "ok": ok,
                           "value": rate, "rule": rule, "pairs": pairs})
        return result


class IndependenceDesk:
    """One op: two independence verdicts at the desk constants, a
    product instance that must be accepted and a diagonal one that
    must be rejected (criterion 10)."""

    name = "independence-desk"
    cycle = 1
    digest_ops = 8

    def __init__(self, seed: int) -> None:
        self.cases = [
            ("product", uniform_product_measure(40, 20),
             IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK), True),
            ("diagonal", diagonal_measure(20),
             IndependenceConfig(n1=20, n2=20, epsilon=0.35, rho=0.2, **INDEPENDENCE_DESK), False),
        ]
        self.root = RngStream(seed, f"bench/{self.name}")

    def _round(self, stream: RngStream) -> list[list]:
        out = []
        for label, p, config, _ in self.cases:
            v = independence.rep_independence_test(p, config, stream.substream(label))
            out.append([int(v.accept), v.statistic, v.threshold, int(v.detail.get("stage", 2))])
        return out

    def warm_up(self) -> None:
        self._round(self.root.substream("warm-up"))

    def op(self, i: int) -> list[list]:
        return self._round(self.root.substream("op", i))

    def check_op(self, out) -> str | None:
        for (label, *_), (_, stat, threshold, stage) in zip(self.cases, out):
            if stage not in (1, 2) or not (math.isfinite(stat) and math.isfinite(threshold)):
                return f"{label}: stage {stage}, statistic {stat}, threshold {threshold}"
        return None

    def checks(self, outs: list) -> list[dict]:
        result = []
        for k, (label, _, _, should_accept) in enumerate(self.cases):
            rate = sum(o[k][0] == should_accept for o in outs) / len(outs)
            result.append({
                "check": f"{'accept' if should_accept else 'reject'}({label})",
                "ok": rate >= 2 / 3, "value": rate, "rule": ">= 2/3", "verdicts": len(outs),
                "stages": sorted({o[k][3] for o in outs}),
            })
        return result


class MixingWalks:
    """One op: one exact mixing report of the closeness pair walk at the
    default truncation. A cycle runs each xi of criterion 11's grid once,
    so every run times the same three reports; the seed only rotates
    their order."""

    name = "mixing-walks"
    xis = (0.0, 0.1, 0.2)
    cycle = len(xis)
    digest_ops = cycle
    delta = 0.04

    def __init__(self, seed: int) -> None:
        self.reference = json.loads(MIXING_REFERENCE.read_text())
        self.offset = seed % self.cycle
        self.kernels = [walks.ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=xi)
                        for xi in self.xis]

    def warm_up(self) -> None:
        # A 169-state report loads the same LAPACK paths in milliseconds.
        small = walks.ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=0.2, a_max=12)
        walks.estimate_mixing(small, self.delta, initial="all")

    def op(self, i: int) -> dict:
        k = (self.offset + i) % self.cycle
        report = walks.estimate_mixing(self.kernels[k], self.delta, initial="all")
        return {"xi": self.xis[k], "tau_delta": report.tau_delta,
                "gap_estimate": report.gap_estimate,
                "curve": [float(v) for _, v in report.tv_curve]}

    def check_op(self, out) -> str | None:
        ref = self.reference["reports"][repr(out["xi"])]
        tol = self.reference["tolerance"]
        if out["tau_delta"] != ref["tau_delta"]:
            return f"xi={out['xi']}: tau_delta {out['tau_delta']} != {ref['tau_delta']}"
        if abs(out["gap_estimate"] - ref["gap_estimate"]) > tol["gap_estimate"]:
            return f"xi={out['xi']}: gap {out['gap_estimate']!r} != {ref['gap_estimate']!r}"
        if len(out["curve"]) != len(ref["curve"]) or any(
            abs(a - b) > tol["curve"] for a, b in zip(out["curve"], ref["curve"])
        ):
            return f"xi={out['xi']}: l1 curve differs from the reference"
        return None

    def checks(self, outs: list) -> list[dict]:
        return []  # every report is checked on its own, in check_op


WORKLOADS = {w.name: w for w in (Replicability1D, IndependenceDesk, MixingWalks)}
