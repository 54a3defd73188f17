"""In-memory spans around lacelab's public functions, for the traced run.

A Tracer patches each traced function where it is defined and under every
name another lacelab module imported it as, records one span per call
(name, start, end, parent) and restores every original on exit.  Counters
are kept beside the spans, so rates are measured where the work happens.
"""

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # each span is [name, start, end, parent index (-1 at top), draws]
        self.spans = []
        self.counts = defaultdict(float)
        self.draws = 0
        self._stack = []
        self._patched = []

    # -- patching --------------------------------------------------------
    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, module, attr, new):
        """Replace module.attr and every lacelab alias of the same object."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lacelab"
                                   or name.startswith("lacelab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)

    def trace(self, owner, attr, name, count=None):
        """Record a span for every call of owner.attr.

        owner is a module (the function is also replaced under each name
        other lacelab modules imported it as) or a class (for methods).
        count(counts, args, kwargs, result) may add work counters.
        """
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = self._clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.draws])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec = spans[idx]
                rec[2] = clock()
                rec[4] = self.draws - rec[4]
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        if isinstance(owner, type):
            self._replace(owner, attr, wrapper)
        else:
            self._replace_everywhere(owner, attr, wrapper)

    def count_calls(self, module, attr):
        """Count calls of a hot function without recording spans."""
        fn = getattr(module, attr)

        def wrapper(*args):
            self.draws += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        self._replace_everywhere(module, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summaries -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total time, self time and counter draws."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "draws": 0})
        for i, (name, start, end, _, draws) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            rec["draws"] += draws
        return dict(out)
