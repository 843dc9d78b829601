"""Spans and counters recorded from outside picardcc.

A Tracer replaces public callables with timing wrappers for the length of a
traced pass and puts the originals back afterwards.  Each callable is wrapped
where its caller looks it up: chabauty imports frobenius_matrix, algdep and
the rest by name, so those wrappers go into the chabauty module, while
methods are wrapped on their class.  Spans stay in memory until the run
ends and are then written out as one JSON file.
"""

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.results = {}
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def open(self, name):
        sp = {"id": len(self.spans), "name": name,
              "parent": self._stack[-1]["id"] if self._stack else None,
              "start": time.perf_counter(), "end": None,
              "_counts0": dict(self.counts)}
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp):
        sp["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not sp:
            raise RuntimeError(f"span {sp['name']} closed out of order")
        before = sp.pop("_counts0")
        sp["counts"] = {k: v - before.get(k, 0)
                        for k, v in self.counts.items()
                        if v != before.get(k, 0)}

    def _span_wrapper(self, name, fn, keep_result):
        def wrapper(*args, **kwargs):
            sp = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if keep_result:
                self.results.setdefault(name, []).append(out)
            return out
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ---------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(self, owner, attr, name, keep_result=False):
        """Record a span around every call of owner.attr."""
        fn = getattr(owner, attr)
        self._replace(owner, attr, self._span_wrapper(name, fn, keep_result))

    def count(self, owner, attr, key):
        """Count the calls of owner.attr without opening spans."""
        self._replace(owner, attr, self._count_wrapper(key, getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- reading ------------------------------------------------------------

    def self_times(self):
        """name -> (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus its direct children's.  The
        inclusive time of a name counts only its outermost spans, so that
        recursive calls are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out = {}
        for sp in self.spans:
            dur = sp["end"] - sp["start"]
            calls, self_s, incl = out.get(sp["name"], (0, 0.0, 0.0))
            anc, nested = sp["parent"], False
            while anc is not None:
                if self.spans[anc]["name"] == sp["name"]:
                    nested = True
                    break
                anc = self.spans[anc]["parent"]
            out[sp["name"]] = (calls + 1, self_s + dur - child[sp["id"]],
                               incl + (0.0 if nested else dur))
        return out

    def write(self, path, extra=None):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        summary = {name: {"calls": c, "self_s": s, "inclusive_s": i}
                   for name, (c, s, i) in sorted(self.self_times().items())}
        doc = {"summary": summary, "counts": self.counts,
               "spans": [dict(sp, start=sp["start"] - t0, end=sp["end"] - t0)
                         for sp in self.spans]}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)
