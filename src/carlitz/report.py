"""The report a suite or command fills with checks, which cli.render
prints in every format and the exit status reads."""


class VerificationReport:
    """A suite's checks, each printed as the dict `row` makes.  `add`
    stores that dict in `checks`; `add_passed` stores passed checks in
    `bulk` as columns.  `rows()` yields every check's dict; cli.render
    encodes a bulk block through one template."""

    def __init__(self, suite, params):
        self.suite, self.params, self.checks, self.bulk = suite, params, [], []

    @staticmethod
    def row(check_id, detail, status="pass", lhs_prec=None, rhs_prec=None):
        return {"id": check_id, "status": status, "lhs_precision": lhs_prec,
                "rhs_precision": rhs_prec, "detail": detail}

    def add(self, check_id, ok, lhs_prec=None, rhs_prec=None,
            indeterminate=False, reason=None, **detail):
        """Record one check; `reason` says why it did not pass and is
        kept only when it did not.  An indeterminate check needs one."""
        status = "indeterminate" if indeterminate else \
            ("pass" if ok else "fail")
        if indeterminate and reason is None:
            raise ValueError("indeterminate check %r has no reason" % check_id)
        if status != "pass" and reason is not None:
            detail["reason"] = reason
        self.checks.append(self.row(
            check_id, {k: str(v) for k, v in detail.items()}, status,
            lhs_prec, rhs_prec))

    def add_passed(self, ids, **columns):
        """Record passed checks after those of `add`: check k is the row
        add(ids[k], True, **{name: column[k]}) makes.  The iterables are
        kept, and read (values str()-ed) each time the rows are: bc-scan's
        iterators give theirs once, at 2 MB less peak RSS than lists."""
        self.bulk.append((ids, columns))

    def rows(self):
        yield from self.checks
        for ids, columns in self.bulk:
            values = (map(str, column) for column in columns.values())
            for check_id, *row in zip(ids, *values):
                yield self.row(check_id, dict(zip(columns, row)))

    def passed(self):
        # bulk checks all passed
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self):
        # name and params as printed; cli.render adds the checks
        return {"name": self.suite,
                "params": {k: str(v) for k, v in self.params.items()}}
