"""Spans around wreathprob's layers, installed from outside the package.

A traced job process calls ``install`` after importing ``wreathprob.cli``:
it wraps each layer module's public functions and three key methods, and
rebinds every module's reference to them (the package binds names with
``from .x import f``, so patching only the defining module misses most
calls).  Spans stay in memory in flat arrays and are written once, as one
JSON document per job, when the job ends.  ``summarize_job`` turns such a
document into per-layer numbers.
"""

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "partitions",
    "diagrams",
    "indicators",
    "wreath",
    "asymptotics",
    "bruteforce",
    "groups",
    "cyclotomics",
    "sampling",
    "cli",
)

# Kernels that run ~10^6 times per job: a span around each would cost more
# than the work it measures.  (``partitions._mn`` is private, so it is
# never wrapped.)
UNWRAPPED = {"indicators.compose", "indicators.cycle_type"}

METHODS = (
    ("wreath", "RepFamily", "moment"),
    ("indicators", "IndicatorSum", "__mul__"),
    ("bruteforce", "WreathGroup", "__init__"),
)

IMPORT_SPAN = "cli.import"
MOMENT = "wreath.RepFamily.moment"
TUPLE = "sampling.sample_canonical"


def _count_group(counts, args, result):
    counts["bruteforce.groups_built"] += 1
    counts["bruteforce.elements_built"] += args[0].order


def _count_boxes(counts, args, result):
    counts["sampling.boxes"] += sum(sum(lam) for lam in result)


OBSERVERS = {
    "bruteforce.WreathGroup.__init__": _count_group,
    TUPLE: _count_boxes,
}


class Tracer:
    """In-memory span store of one job process."""

    def __init__(self, job):
        self.job = job
        self.names = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self.stack = [-1]
        self.counts = Counter()
        self.caches = {}
        self.wrapped = {}

    def record(self, name, start, end):
        """Add a finished root span that no wrapper saw, such as the import."""
        self.names.append(name)
        self.fid.append(len(self.names) - 1)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.error.append(0)

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends = self.fid, self.start, self.end
        parents, errors, stack = self.parent, self.error, self.stack
        observe, counts = OBSERVERS.get(name), self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            errors.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def to_json(self):
        caches = {}
        for layer, objs in self.caches.items():
            infos = {name: obj.cache_info() for name, obj in objs.items()}
            caches[layer] = {
                name: [info.hits, info.misses, info.currsize]
                for name, info in infos.items()
            }
        return {
            "job": self.job,
            "names": self.names,
            "fid": self.fid.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "error": self.error.tolist(),
            "counts": dict(self.counts),
            "caches": caches,
            "wrapped": self.wrapped,
        }


def _wrappable(layer, module, attr, obj):
    if attr.startswith("_") or f"{layer}.{attr}" in UNWRAPPED:
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    # a span around a generator function would time only its creation
    if inspect.isgeneratorfunction(obj):
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def install(tracer):
    """Wrap the package's layers, listing the wrapped names per layer."""
    wrappers = {}
    wrapped = tracer.wrapped = {layer: [] for layer in LAYERS}
    for layer in LAYERS:
        module = sys.modules[f"wreathprob.{layer}"]
        tracer.caches[layer] = {
            attr: obj
            for attr, obj in vars(module).items()
            if hasattr(obj, "cache_info")
            and getattr(obj, "__module__", None) == module.__name__
        }
        for attr, obj in list(vars(module).items()):
            if _wrappable(layer, module, attr, obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj)
                wrapped[layer].append(name)
    for layer, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"wreathprob.{layer}"], cls_name)
        name = f"{layer}.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method]))
        wrapped[layer].append(name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "wreathprob" and not mod_name.startswith("wreathprob."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
            elif type(obj) is dict and attr != "__builtins__":
                # dispatch tables such as cli.COMMANDS
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]


def write(tracer, path):
    with open(path, "w") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))


# ------------------------------------------------------------- aggregation


def layer_of(name):
    return name.split(".", 1)[0]


def layer_self_times(doc):
    """Self seconds per layer of one job's spans.

    A span's self time is its duration minus what its child spans cover.
    Summed per layer, a layer's self time is the time its spans cover minus
    the time that spans of other layers nested inside them cover.
    """
    start, end, parent = doc["start"], doc["end"], doc["parent"]
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    layers = [layer_of(n) for n in doc["names"]]
    out = Counter()
    for i, f in enumerate(doc["fid"]):
        out[layers[f]] += end[i] - start[i] - covered[i]
    return out


def summarize_job(doc):
    """Additive per-layer totals of one traced job, and its tuple durations.

    The totals are keyed by metric name; tuple durations are the seconds of
    each ``sample_canonical`` call.
    """
    names, fid, parent = doc["names"], doc["fid"], doc["parent"]
    layers = [layer_of(n) for n in names]
    totals = Counter(doc["counts"])
    for layer, seconds in layer_self_times(doc).items():
        totals[f"{layer}.self_s"] += seconds
    tuple_s = []
    for i, f in enumerate(fid):
        totals[f"{layers[f]}.calls"] += 1
        totals[f"{layers[f]}.errors"] += doc["error"][i]
        if names[f] == MOMENT and parent[i] >= 0 and layers[fid[parent[i]]] == "asymptotics":
            totals["wreath.moment.calls"] += 1
        elif names[f] == TUPLE:
            tuple_s.append(doc["end"][i] - doc["start"][i])
        elif names[f] == IMPORT_SPAN:
            totals["cli.import_s"] += doc["end"][i] - doc["start"][i]
    for layer, entries in doc["caches"].items():
        totals[f"{layer}.cache_entries"] += sum(e[2] for e in entries.values())
    hits, misses, _ = doc["caches"].get("indicators", {}).get("product_coefficients", (0, 0, 0))
    totals["indicators.product_coefficients.hits"] += hits
    totals["indicators.product_coefficients.misses"] += misses
    return totals, tuple_s
