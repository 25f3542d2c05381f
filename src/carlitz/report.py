"""The report a suite or command fills with checks, which cli.render
prints in every format and the exit status reads."""

# a truth value's text in a check's detail, indexed by the value
TRUTH = ("False", "True")


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

    def add_passed(self, fmt, keys, **columns):
        """Record passed checks after those of `add`: check j is the row
        add(fmt % keys[j], True, **{name: column[j]}) makes.  fmt holds
        one %d (and %% for a percent sign) and the keys are ints; a
        column holds ints alone or truth values (bools) alone, and any
        other column raises TypeError when the rows are read.  The
        iterables are kept, and read each time the rows are: an iterator
        gives its rows once."""
        rest = fmt.replace("%%", "")
        if rest.count("%") != 1 or "%d" not in rest:
            raise ValueError("id format %r needs exactly one %%d" % fmt)
        if "\0" in columns:
            # cli's JSON template marks each cell with the text "\0"
            raise ValueError("a column may not be named '\\0'")
        self.bulk.append((fmt, keys, columns))

    def blocks(self):
        """Each bulk block as (fmt, keys, columns), columns mapping each
        name to (truth, values): whether the column holds truth values
        rather than ints, and its values.  Every cell is checked, with
        one set of the column's types (a range holds ints), before any
        row is read."""
        for fmt, keys, columns in self.bulk:
            kinds = {}
            for name, column in columns.items():
                if isinstance(column, range):
                    held = {int}
                else:
                    if not isinstance(column, (list, tuple)):
                        column = list(column)
                    held = set(map(type, column))
                if held - {int} and held - {bool}:
                    raise TypeError(
                        "column %r holds %s: a column holds ints alone or "
                        "truth values alone" % (name, " and ".join(
                            sorted(t.__name__ for t in held))))
                kinds[name] = (held == {bool}, column)
            yield fmt, keys, kinds

    def rows(self):
        yield from self.checks
        for fmt, keys, columns in self.blocks():
            cells = (map(TRUTH.__getitem__, values) if truth
                     else map("%d".__mod__, values)
                     for truth, values in columns.values())
            for key, *row in zip(keys, *cells):
                yield self.row(fmt % key, dict(zip(columns, row)))

    def passed(self):
        # bulk checks all passed
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self):
        # name and params as printed; cli.render adds the checks
        return {"name": self.suite,
                "params": {k: str(v) for k, v in self.params.items()}}
