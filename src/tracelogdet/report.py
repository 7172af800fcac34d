"""End-user certification pipeline: estimate, bounds, interval, verdict."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import bounds as bounds_mod
from .estimators import EstimateReport, k0m_estimate
from .moments import TracePowers, cumulants, normalize


@dataclass
class CertifiedReport:
    """Point estimate plus certified interval for log det, with verdict.

    ``clipped_logdet`` is the deliverable number: the estimate when it
    falls inside the interval, otherwise the nearest endpoint.  The
    warnings are those of the bounds.
    """

    input: dict
    m: int
    estimate: EstimateReport
    bounds: bounds_mod.BoundsReport
    interval: tuple[float, float]
    verdict: str
    clipped_logdet: float

    @property
    def warnings(self) -> list[str]:
        return self.bounds.warnings

    def to_dict(self) -> dict:
        lo, hi = self.interval
        return {
            "input": self.input,
            "m": self.m,
            "estimate": {
                "method": self.estimate.method,
                "m": self.estimate.m,
                "kprime0_hat": self.estimate.kprime0_hat,
                "gm_over_am_hat": self.estimate.gm_over_am_hat,
                "logdet_hat": self.estimate.logdet_hat,
            },
            "bounds": {
                "upper": dict(self.bounds.upper),
                "lower": dict(self.bounds.lower),
                "U_best": self.bounds.U_best,
                "L_best": self.bounds.L_best,
                "floor_r": self.bounds.floor_r,
            },
            "interval": [None if math.isinf(lo) else lo, hi],
            "verdict": self.verdict,
            "clipped_logdet": self.clipped_logdet,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CertifiedReport":
        est = d["estimate"]
        estimate = EstimateReport(
            method=est["method"], m=est["m"],
            kprime0_hat=est["kprime0_hat"],
            gm_over_am_hat=est["gm_over_am_hat"],
            logdet_hat=est["logdet_hat"])
        b = d["bounds"]
        brep = bounds_mod.BoundsReport(
            upper=dict(b["upper"]), lower=dict(b["lower"]),
            U_best=b["U_best"], L_best=b["L_best"], floor_r=b["floor_r"],
            warnings=list(d["warnings"]))
        lo, hi = d["interval"]
        return cls(input=dict(d["input"]), m=d["m"], estimate=estimate,
                   bounds=brep,
                   interval=(-math.inf if lo is None else lo, hi),
                   verdict=d["verdict"], clipped_logdet=d["clipped_logdet"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CertifiedReport":
        return cls.from_dict(json.loads(text))


def certify(tp: TracePowers, m: int, r: float | None = None,
            ks=(2, 3, 4), input_desc: dict | None = None) -> CertifiedReport:
    """Full pipeline: traces -> estimate -> bounds -> certified interval."""
    if m < 2 or m > tp.m:
        raise ValueError(f"m must lie in [2, {tp.m}]")
    nm = normalize(tp)
    am = tp.p[0] / tp.n
    est = k0m_estimate(cumulants(nm), m, n=tp.n, am=am)
    rep = bounds_mod.bounds_report(nm, ks=ks, r=r)
    interval = bounds_mod.certified_interval(tp.p[0], tp.n, rep.U_best,
                                             rep.L_best)
    diag = bounds_mod.gap_diagnostic(est, *interval)
    return CertifiedReport(
        input=input_desc or {"n": tp.n, "m": tp.m},
        m=m, estimate=est, bounds=rep, interval=interval,
        verdict=diag.verdict, clipped_logdet=diag.clipped)
