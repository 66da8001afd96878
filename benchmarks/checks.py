"""Checks applied to every output row, and the failure classes known at the base.

A row fails when its point raised, when its finite oracle deviation exceeds
the CLI's 1e-8 gate, or when a closed-form column misses an identity that is
computed here without calling mek:

* squeezed families: S_2 = ln cosh 2r (the purity identity e^{-S_2} = sech 2r)
  and S_inf = 2 ln cosh r;
* silbey-harris: the two-level entropy of {(1 + c)/2, (1 - c)/2}, c = e^{-2 f.f};
* thermo-table: ln Z = S_inf.

A failed row is *known* when it belongs to a failure class documented in
README.md (wrong answers the base commit is known to give). Known failures
still count as failed rows; they only keep a run from being flagged as
showing an unexpected failure.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

ORACLE_GATE = 1e-8
IDENTITY_RTOL = 1e-12
TWO_LEVEL_RTOL = 1e-10

SQUEEZED_FAMILIES = ("squeezed", "displaced-squeezed", "squeezed-coherent")
DISPLACED_FAMILIES = ("displaced-squeezed", "squeezed-coherent")

# Known at the base: the displaced oracles ignore the order when truncating,
# so order < 1 rows miss the gate by up to ~1e-6 on the benchmark's ranges.
KNOWN_ORACLE_DEV_CEILING = 1e-5
# Known at the base: the thermal layer is not in log domain, so cosh(r)**2
# overflows from r ~ 355 and beta underflows to 0 from f.f ~ 372.
KNOWN_THERMAL_RAISE = {"squeezed": OverflowError, "silbey-harris": ZeroDivisionError}
KNOWN_THERMAL_PARAM_FLOOR = 300.0


def log_cosh(x: float) -> float:
    """ln cosh x without overflow."""
    x = abs(x)
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def two_level_renyi(f_dot_f: float, mu: float) -> float:
    """Renyi entropy of order mu of {(1 + c)/2, (1 - c)/2} with c = e^{-2 f.f}."""
    c = math.exp(-2.0 * f_dot_f)
    probs = [p for p in ((1.0 + c) / 2.0, (1.0 - c) / 2.0) if p > 0.0]
    if math.isinf(mu):
        return -math.log(probs[0])
    if mu == 1.0:
        return -sum(p * math.log(p) for p in probs)
    return math.log(sum(p ** mu for p in probs)) / (1.0 - mu)


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one output row."""

    failed: bool
    known: bool = False
    reason: str = ""
    deviation: float = math.nan


PASSED = Verdict(False)


def _identity_failure(family: str, row: dict) -> str:
    """Name of the first closed-form column that misses its identity, or ''."""
    param, mu = row["param"], row["mu"]
    if family in SQUEEZED_FAMILIES:
        s_2 = log_cosh(2.0 * param)
        s_inf = 2.0 * log_cosh(param)
        expected = {"S_2": s_2, "S_inf": s_inf}
        if mu == 2.0:
            expected["S_mu"] = s_2
        elif math.isinf(mu):
            expected["S_mu"] = s_inf
        if abs(row["purity"] - math.exp(-s_2)) > IDENTITY_RTOL:
            return "purity"
        rtol = IDENTITY_RTOL
    elif family == "silbey-harris":
        expected = {
            "S_mu": two_level_renyi(param, mu),
            "S_vn": two_level_renyi(param, 1.0),
            "S_2": two_level_renyi(param, 2.0),
            "S_inf": two_level_renyi(param, math.inf),
        }
        rtol = TWO_LEVEL_RTOL
    else:
        return ""
    for column, reference in expected.items():
        if not _close(row[column], reference, rtol):
            return column
    return ""


def check_sweep_row(family: str, row: dict) -> Verdict:
    """Check one `run_sweep` row, given as a column -> value mapping."""
    bad_column = _identity_failure(family, row)
    if bad_column:
        return Verdict(True, reason=f"identity:{bad_column}")
    if "oracle_S_mu" not in row or math.isinf(row["S_mu"]):
        return PASSED
    deviation = abs(row["S_mu"] - row["oracle_S_mu"])
    if not math.isfinite(deviation):
        return Verdict(True, reason="oracle:non-finite")
    if deviation > ORACLE_GATE:
        known = (
            family in DISPLACED_FAMILIES
            and row["mu"] < 1.0
            and deviation <= KNOWN_ORACLE_DEV_CEILING
        )
        return Verdict(True, known, "oracle:gate", deviation)
    if not _close(row["abs_dev"], deviation, IDENTITY_RTOL):
        return Verdict(True, reason="oracle:abs_dev-column", deviation=deviation)
    return Verdict(False, deviation=deviation)


def check_thermo_row(family: str, row: dict) -> Verdict:
    """Check one `run_thermo_table` row: ln Z = S_inf, and S_inf itself."""
    if not _close(row["ln_Z"], row["S_inf"], IDENTITY_RTOL):
        return Verdict(True, reason="identity:ln_Z")
    if family in SQUEEZED_FAMILIES:
        reference = 2.0 * log_cosh(row["param"])
    elif family == "silbey-harris":
        reference = two_level_renyi(row["param"], math.inf)
    else:
        return PASSED
    if not _close(row["S_inf"], reference, TWO_LEVEL_RTOL):
        return Verdict(True, reason="identity:S_inf")
    return PASSED


def raised(family: str, param: float, exc: BaseException) -> Verdict:
    """Verdict for each row of a call that raised instead of returning rows."""
    known_type = KNOWN_THERMAL_RAISE.get(family)
    known = (
        known_type is not None
        and type(exc) is known_type
        and param >= KNOWN_THERMAL_PARAM_FLOOR
    )
    return Verdict(True, known, f"raised:{type(exc).__name__}")


@dataclass
class Tally:
    """Row counts over any number of points; the base of ``fail_frac``."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    max_abs_dev: float = 0.0
    reasons: Counter = field(default_factory=Counter)

    def add(self, verdict: Verdict, rows: int = 1) -> None:
        self.attempted += rows
        if math.isfinite(verdict.deviation):
            self.max_abs_dev = max(self.max_abs_dev, verdict.deviation)
        if verdict.failed:
            self.failed += rows
            self.reasons[verdict.reason] += rows
            if not verdict.known:
                self.unexpected += rows

    def merge(self, other: "Tally") -> None:
        """Add the counts of ``other`` to this tally."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.max_abs_dev = max(self.max_abs_dev, other.max_abs_dev)
        self.reasons.update(other.reasons)

    def unexpected_event(self, reason: str) -> None:
        """A failure that is not a row, such as malformed rendered output."""
        self.unexpected += 1
        self.reasons[reason] += 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
