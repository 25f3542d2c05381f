"""The report a suite or command fills with checks, and the one encoder
of its rows.  A run's reports make one document, {config,
suite_results: [{name, params, checks: [...]}], timing_ms}: `pieces`
prints it as JSON, as CSV (its checks flattened to rows) or as text for
eyeballs."""

import io
import itertools
import json

from . import polynomials

# a truth value's text in a check's detail, indexed by the value
TRUTH = ("False", "True")
# a report's rows are joined BATCH at a time: no list holds a str per row
BATCH = 1024
# the JSON encoder's own separator between items
SEP = json.JSONEncoder.item_separator


def for_prime(suite, P, **params):
    """An empty report whose params lead with q and P as format_poly
    prints it, however the input spelled P."""
    return VerificationReport(suite, dict(
        q=P.field.order, P=polynomials.format_poly(P), **params))


def _cells(what, cells, kinds=(int, bool)):
    """cells as a list, tuple or range (any other iterable is read into
    a list), and the one type of `kinds` that all of them have (int when
    there are none).  Cells of any other type, or of two types, raise
    TypeError."""
    if isinstance(cells, range):
        return cells, int
    if not isinstance(cells, (list, tuple)):
        cells = list(cells)
    held = set(map(type, cells)) or {int}
    if len(held) > 1 or held.isdisjoint(kinds):
        raise TypeError("%s holds %s; it may hold %s alone" % (
            what, " and ".join(sorted(t.__name__ for t in held)),
            " alone or ".join(t.__name__ for t in kinds)))
    return cells, held.pop()


def _batches(sep, rows):
    """rows joined by sep BATCH at a time, while the rows last (a row is
    never empty)."""
    while batch := sep.join(itertools.islice(rows, BATCH)):
        yield batch


class VerificationReport:
    """A suite's checks, each printed as the dict `row` makes.  `add`
    stores that dict in `checks`; `add_passed` stores passed checks in
    `bulk` as columns.  `rows()` yields every check's dict; the JSON
    encoder writes a bulk block through one template."""

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

    def compare(self, check_id, lhs, rhs, need):
        """Record the comparison of two series whose precisions count
        digits in one unit: it counts only on their common window, so it
        passes when they agree there and the window holds `need` digits,
        and is indeterminate when they agree on fewer."""
        agree = (lhs - rhs).is_zero()
        overlap = min(lhs.prec, rhs.prec)
        if not agree:
            reason = ("the sides differ below their common precision %d"
                      % overlap)
        else:
            reason = ("the sides agree to precision %d, %d needed; raise "
                      "the depth" % (overlap, need))
        self.add(check_id, agree and overlap >= need, lhs_prec=lhs.prec,
                 rhs_prec=rhs.prec, indeterminate=agree and overlap < need,
                 reason=reason)

    def add_passed(self, fmt, keys, **columns):
        """Record passed checks after those of `add`: check j is the row
        add(fmt % keys[j], True, **{name: column[j]}) makes.  fmt holds
        one %d (and %% for a percent sign), the keys are ints, and a
        column holds ints alone or truth values (bools) alone; each is
        checked here, an iterator read into a list, and anything else
        raises TypeError."""
        rest = fmt.replace("%%", "")
        if rest.count("%") != 1 or "%d" not in rest:
            raise ValueError("id format %r needs exactly one %%d" % fmt)
        if "\0" in columns:
            # the JSON template marks each cell with the text "\0"
            raise ValueError("a column may not be named '\\0'")
        keys, _ = _cells("the key column", keys, (int,))
        self.bulk.append((fmt, keys, {name: _cells("column %r" % name, column)
                                      for name, column in columns.items()}))

    def rows(self):
        yield from self.checks
        for fmt, keys, columns in self.bulk:
            cells = (map(TRUTH.__getitem__, values) if kind is bool
                     else map("%d".__mod__, values)
                     for values, kind in columns.values())
            for key, *row in zip(keys, *cells):
                yield self.row(fmt % key, dict(zip(columns, row)))

    def passed(self):
        # bulk checks all passed
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self):
        # name and params as printed; the encoder adds the checks
        return {"name": self.suite,
                "params": {k: str(v) for k, v in self.params.items()}}

    def checks_json(self):
        """The JSON text of the checks, in pieces whose concatenation it
        is.  A bulk block is encoded with no dict per row, through one
        template: json.dumps of a row whose values are a sentinel, so
        that keys, order and separators are the encoder's own bytes,
        with the JSON of the id format in the id's place and, in each
        cell's, "%d" for ints or "%s" for truth values, which go in as
        their labels.  Each row is one % of the template: an int's
        digits and the labels need no escaping, and no other text goes
        in.  The rows are joined BATCH at a time."""
        mark = json.dumps("\0")
        yield "["
        lead = ""
        if self.checks:
            yield json.dumps(self.checks)[1:-1]
            lead = SEP
        for fmt, keys, columns in self.bulk:
            skeleton = json.dumps(self.row("\0", dict.fromkeys(columns, "\0")))
            slots = [json.dumps(fmt)] + ['"%s"' if kind is bool else '"%d"'
                                         for _, kind in columns.values()]
            template = "".join(s.replace("%", "%%") + slot for s, slot in
                               zip(skeleton.split(mark), slots + [""]))
            cells = zip(keys, *(map(TRUTH.__getitem__, values)
                                if kind is bool else values
                                for values, kind in columns.values()))
            for batch in _batches(SEP, map(template.__mod__, cells)):
                yield lead
                yield batch
                lead = SEP
        yield "]"


def pieces(fmt, reports, config, elapsed_ms):
    """The run's document in format fmt ("json", "csv" or "text"), in
    pieces whose concatenation it is, each of at most BATCH rows.
    config is the run's config block, with its digest."""
    if fmt == "json":
        return _json_pieces(reports, config, elapsed_ms)
    if fmt == "csv":
        return _csv_pieces(reports)
    return _batches("", _text_lines(reports, config, elapsed_ms))


def _json_pieces(reports, config, elapsed_ms):
    """{config, suite_results: [{name, params, checks}], timing_ms}, as
    json.dumps writes it: each part is the encoder's text of a dict, its
    last list left open where the reports, or a report's checks, go."""
    yield json.dumps({"config": config, "suite_results": []})[:-2]
    for i, r in enumerate(reports):
        head = json.dumps(dict(r.as_dict(), checks=[]))
        yield (SEP if i else "") + head[:-3]
        yield from r.checks_json()
        yield "}"
    yield "]" + SEP + json.dumps({"timing_ms": elapsed_ms})[1:] + "\n"


def _csv_pieces(reports):
    """The CSV table, a header and one row per check, BATCH rows to a
    piece."""
    import csv  # only CSV runs pay for the import
    rows = itertools.chain(
        [("suite", "check", "status", "lhs_precision", "rhs_precision",
          "detail")],
        ((r.suite, c["id"], c["status"], c["lhs_precision"],
          c["rhs_precision"], json.dumps(c["detail"], sort_keys=True))
         for r in reports for c in r.rows()))
    while True:
        buf = io.StringIO()
        csv.writer(buf).writerows(itertools.islice(rows, BATCH))
        if not buf.tell():
            return
        yield buf.getvalue()


def _text_lines(reports, config, elapsed_ms):
    yield "# carlitz run (digest %s)\n" % config["digest"]
    for r in reports:
        yield "[%s] %s\n" % (r.suite, json.dumps(r.as_dict()["params"]))
        for c in r.rows():
            extra = " ".join("%s=%s" % kv for kv in c["detail"].items())
            yield "  %-12s %s %s\n" % (c["status"], c["id"], extra)
    yield "timing %d ms\n" % elapsed_ms
