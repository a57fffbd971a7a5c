"""Structured pass/fail reports shared by the verification suites."""

import json


class Report:
    def __init__(self, suite):
        self.suite = suite
        self.cases = []

    def add(self, params, passed, lhs=None, rhs=None):
        case = {"params": params, "pass": bool(passed)}
        if not passed:
            if lhs is not None:
                case["lhs"] = lhs
            if rhs is not None:
                case["rhs"] = rhs
        self.cases.append(case)

    def record(self, params, lhs_value, rhs_value, text=repr):
        """Add a case comparing two values, keeping the text of both sides
        on failure."""
        ok = lhs_value == rhs_value
        self.add(params, ok, None if ok else text(lhs_value), None if ok else text(rhs_value))
        return ok

    def extend(self, other: "Report"):
        self.cases.extend(other.cases)

    @property
    def passed(self):
        return sum(1 for c in self.cases if c["pass"])

    @property
    def failed(self):
        return sum(1 for c in self.cases if not c["pass"])

    @property
    def ok(self):
        """All cases pass, and there is at least one: an empty report proves nothing."""
        return bool(self.cases) and self.failed == 0

    def first_failure(self):
        for c in self.cases:
            if not c["pass"]:
                return c
        return None

    def to_json(self):
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
        }

    def __repr__(self):
        return json.dumps(self.to_json())
