"""Span tracer that instruments a program from outside it.

The tracer wraps callables that a module exposes publicly and rebinds
each wrapper under every public name that referred to the original, in
every module it is given, so that a call made through `from x import f`
is traced the same as a call made through `x.f`.  It reads no private
name of the instrumented program.

Each call becomes one span: an id taken at entry, the id of the span
that was open when the call began (-1 at the top), the span's name, its
start and end on the tracer's clock, and one integer `aux` that an
optional hook derives from the arguments and the result.  Spans stay in
compact arrays in memory and are written to one file when the run ends.
Self time is computed afterwards: a span's duration minus the durations
of the spans whose parent it is.
"""

import functools
import inspect
import itertools
import json
import time
from array import array

FIELDS = (("ids", "q"), ("parents", "q"), ("name_ids", "i"),
          ("starts", "d"), ("ends", "d"), ("aux", "q"))


def public_callables(module):
    """(name, obj) for each public, non-class callable defined in `module`."""
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


class Spans:
    """Recorded spans as parallel arrays, plus the table of span names."""

    def __init__(self, names, installed, wall_s, arrays):
        self.names = names
        self.installed = installed
        self.wall_s = wall_s
        for field, _ in FIELDS:
            setattr(self, field, arrays[field])

    def __len__(self):
        return len(self.ids)

    def write(self, path):
        header = {"names": self.names, "installed": sorted(self.installed),
                  "wall_s": self.wall_s, "count": len(self),
                  "fields": [f for f, _ in FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                getattr(self, field).tofile(fh)

    @classmethod
    def read(cls, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            arrays = {}
            for field, code in FIELDS:
                arrays[field] = array(code)
                arrays[field].fromfile(fh, header["count"])
        return cls(header["names"], set(header["installed"]), header["wall_s"], arrays)

    def self_times(self):
        """Per-span self time, in recording order: duration minus child durations."""
        n = len(self)
        child = array("d", bytes(8 * n))
        for parent, t0, t1 in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += t1 - t0
        return array("d", (t1 - t0 - child[sid]
                           for sid, t0, t1 in zip(self.ids, self.starts, self.ends)))

    def parent_of(self):
        """Parent id indexed by span id (ids run from 0 to len - 1)."""
        out = array("q", bytes(8 * len(self)))
        for sid, parent in zip(self.ids, self.parents):
            out[sid] = parent
        return out


class Tracer:
    """Records a span for every call of every wrapped callable.

    `clock` is any zero-argument function returning seconds; tests pass a
    deterministic one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.installed = set()
        self.arrays = {field: array(code) for field, code in FIELDS}
        self._name_index = {}
        self._stack = [-1]
        self._ids = itertools.count()
        self._restore = []

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name, fn, aux=None):
        """Wrapper of `fn` recording one span per call.

        `name` is the span name, or a function of the call's positional
        arguments returning it.  `aux(args, result)` gives the span's aux
        value; it is 0 without a hook or when the call raised.
        """
        if callable(name):
            name_of, intern = name, self._intern
        else:
            fixed = self._intern(name)
            name_of, intern = None, None
        clock, stack, ids = self.clock, self._stack, self._ids
        a = self.arrays
        rec_id, rec_parent, rec_name = a["ids"].append, a["parents"].append, a["name_ids"].append
        rec_start, rec_end, rec_aux = a["starts"].append, a["ends"].append, a["aux"].append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                rec_id(sid)
                rec_parent(parent)
                rec_name(fixed if name_of is None else intern(name_of(args)))
                rec_start(t0)
                rec_end(t1)
                rec_aux(aux(args, result) if ok and aux is not None else 0)

        return wrapper

    def install(self, modules, methods=(), aux=None):
        """Wrap and rebind.

        modules: {short name: module}.  Every public callable defined in a
            module is wrapped as span "<short>.<attr>" and rebound under
            every public module attribute, and every value of a public
            dict attribute, that referred to it, in all the modules.
        methods: (short, class name, method, span name) tuples; a span
            name may be a function of the call's positional arguments.  A
            class or method that does not exist is skipped.
        aux: {span name or method key "<short>.<class>.<method>": hook}.
        """
        aux = aux or {}
        wrappers = {}   # id of the original -> its wrapper
        for short, mod in modules.items():
            for attr, obj in public_callables(mod):
                span = "%s.%s" % (short, attr)
                wrappers[id(obj)] = self.wrap(span, obj, aux.get(span))
                self.installed.add(span)
        for short, cls_name, meth, span in methods:
            cls = getattr(modules.get(short), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if not inspect.isfunction(fn):
                continue
            key = "%s.%s.%s" % (short, cls_name, meth)
            self._rebind(cls, meth, self.wrap(span, fn, aux.get(key)))
            self.installed.add(key)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._rebind(obj, k, wrappers[id(v)], item=True)
                elif id(obj) in wrappers:
                    self._rebind(mod, attr, wrappers[id(obj)])

    def _rebind(self, owner, key, value, item=False):
        if item:
            self._restore.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._restore.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, value)

    def uninstall(self):
        """Put every rebound name back, most recent first."""
        while self._restore:
            owner, key, value, item = self._restore.pop()
            if item:
                owner[key] = value
            else:
                setattr(owner, key, value)

    def spans(self, wall_s=None):
        return Spans(list(self.names), set(self.installed), wall_s, self.arrays)

