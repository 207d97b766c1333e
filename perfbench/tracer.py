"""Per-layer spans around the public entry points of limitforge.

The tracer patches the package from outside: each entry point is replaced
by a timing wrapper in every limitforge module that holds it by name (so
`low_index` is replaced in coset, retracts and oracles alike), and methods
are replaced on their class.  Generators are timed per `next()`.  A span
stack gives each layer its self time: a span's duration minus the part of
it covered by nested spans.  lru_cache hit rates are read with
`cache_info()`.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class _TracedIter:
    """Iterator proxy that records one span per next() of a generator."""

    __slots__ = ("_it", "_tracer", "_rec")

    def __init__(self, it, tracer, rec):
        self._it = it
        self._tracer = tracer
        self._rec = rec

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        rec["nexts"] += 1
        stack = self._tracer.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return next(self._it)
        finally:
            dt = perf_counter() - t0
            inner = stack.pop()
            stack[-1] += dt
            rec["self_s"] += dt - inner


# label -> (module, attribute) of the lru_caches whose hit rates are read
CACHES = {
    "ice.wp": ("limitforge.ice", "_wp"),
    "cache.edge_class": ("limitforge.ice", "_edge_class"),
    "cache.presentation_of": ("limitforge.ice", "presentation_of"),
    "cache.tower_names": ("limitforge.ice", "tower_names"),
    "cache.schreier": ("limitforge.coset", "_schreier_data"),
    "cache.word_pool": ("limitforge.retracts", "_word_pool"),
}


def _pres_key(p):
    return (p.names, tuple(r.ints for r in p.relators))


class Tracer:
    """Counters and self times per layer, for one child process."""

    def __init__(self):
        self.stack = [0.0]  # nested-span time of each open span; [0] is the root
        self.layers = defaultdict(lambda: defaultdict(int))
        self._distinct = defaultdict(set)
        self._cache0 = {}

    # -- wrappers

    def _span(self, name, fn, before=None, after=None):
        rec = self.layers[name]
        stack = self.stack

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                rec["calls"] += 1
                rec["self_s"] += dt - inner
            if after is not None:
                after(args, token, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name, fn, key=None):
        rec = self.layers[name]

        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            if key is not None:
                self._distinct[name].add(key(args, kwargs))
            return _TracedIter(fn(*args, **kwargs), self, rec)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self):
        """Wrap every traced entry point; raises if one has gone."""
        import limitforge.abelian as abelian
        import limitforge.coset as coset
        import limitforge.freegroup as freegroup
        import limitforge.ice as ice
        import limitforge.oracles as oracles
        import limitforge.presentation as presentation
        import limitforge.recognize as recognize
        import limitforge.retracts as retracts

        layers = self.layers
        for module, attr, name in (
            (coset, "todd_coxeter", "coset.todd_coxeter"),
            (retracts, "present_from_retraction", "retracts.present"),
            (freegroup, "eval_hom", "freegroup.eval_hom"),
            (presentation, "tietze_simplify", "presentation.tietze"),
            (presentation, "normalize_key", "presentation.normalize"),
            (ice, "wp_ice", "ice.wp"),
            (ice, "centralizer_ice", "ice.centralizer"),
            (recognize, "refute_sentence", "recognize.refute"),
        ):
            self._replace(module, attr, self._span(name, getattr(module, attr)))

        def low_index_key(args, kwargs):
            n = args[1] if len(args) > 1 else kwargs["n"]
            return (_pres_key(args[0]), n)

        for module, attr, name, key in (
            (coset, "low_index", "coset.low_index", low_index_key),
            (presentation, "enumerate_presentations", "presentation.expand", None),
            (ice, "enumerate_ice", "ice.towers", None),
        ):
            self._replace(module, attr, self._generator(name, getattr(module, attr), key))

        def rs_after(args, token, out):
            self._distinct["coset.rs"].add((_pres_key(args[0]), args[1]))

        self._replace(coset, "rs_presentation",
                      self._span("coset.rs", coset.rs_presentation, after=rs_after))
        solve = layers["abelian.solve"]

        def solve_after(args, token, out):
            solve["passes"] += out is not None

        self._replace(abelian, "solve", self._span("abelian.solve", abelian.solve, after=solve_after))

        search = layers["retracts.search"]
        init = retracts.RetractionSearch.__init__

        def search_init(obj, *args, **kwargs):
            search["started"] += 1
            init(obj, *args, **kwargs)

        retracts.RetractionSearch.__init__ = search_init

        def search_before(args):
            obj = args[0]
            return obj.steps, obj.result is None

        def search_after(args, token, out):
            obj = args[0]
            search["steps"] += obj.steps - token[0]
            search["hits"] += token[1] and out is not None

        retracts.RetractionSearch.run = self._span(
            "retracts.search", retracts.RetractionSearch.run, search_before, search_after)

        enum = layers["ice.enum"]

        def enum_after(args, token, out):
            enum["emissions"] += len(out)
            enum["steps"] += args[0].steps - token

        ice.LimitEnumeration.next_round = self._span(
            "ice.enum", ice.LimitEnumeration.next_round, lambda a: a[0].steps, enum_after)

        certify = layers["recognize.certify"]

        def certify_before(args):
            obj = args[0]
            return obj.spent, obj.candidates, obj.found is None

        def certify_after(args, token, out):
            obj = args[0]
            certify["spent"] += obj.spent - token[0]
            certify["candidates"] += obj.candidates - token[1]
            certify["hits"] += token[2] and out is not None

        recognize.CertifySearch.run = self._span(
            "recognize.certify", recognize.CertifySearch.run, certify_before, certify_after)

        query = layers["oracles.query"]

        def query_before(args):
            memo = getattr(args[0], "_memo", None)
            if memo is not None and args[1].ints in memo:
                query["memo_hits"] += 1

        oracles.WordOracle.__call__ = self._span(
            "oracles.query", oracles.WordOracle.__call__, query_before)

    @staticmethod
    def _replace(module, attr, wrapper):
        """Put wrapper wherever limitforge holds the original by name."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name == "limitforge" or name.startswith("limitforge."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- reading

    def start(self):
        """Forget what set-up recorded and mark the cache counters, so the
        snapshot covers only the timed operation.  The exception is
        todd_coxeter: the finite oracle builds its coset table when it is
        constructed, during set-up, and that layer is there to cover it."""
        for name, rec in self.layers.items():
            if name != "coset.todd_coxeter":
                rec.clear()  # in place: the wrappers hold these dicts
        self._distinct.clear()
        self._cache0 = {label: self._cache_info(label) for label in CACHES}

    @staticmethod
    def _cache_info(label):
        module, attr = CACHES[label]
        fn = getattr(sys.modules.get(module), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return None
        got = info()
        return got.hits, got.misses

    def snapshot(self, speed: float = 1.0) -> dict:
        """Counters per layer; self times are scaled by `speed` to
        seconds at reference host speed."""
        out = {name: dict(rec) for name, rec in self.layers.items()}
        for rec in out.values():
            if "self_s" in rec:
                rec["self_s"] *= speed
        for name, keys in self._distinct.items():
            out.setdefault(name, {})["distinct"] = len(keys)
        for label in CACHES:
            now, then = self._cache_info(label), self._cache0.get(label)
            if now is None or then is None:
                continue
            rec = out.setdefault(label, {})
            rec["cache_hits"] = now[0] - then[0]
            rec["cache_misses"] = now[1] - then[1]
        return out
