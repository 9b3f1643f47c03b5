"""Per-layer split of a traced run's host time.

The traced run is profiled with :mod:`cProfile` from the benchmark's own
code; nothing inside ``src/`` is instrumented.  Every profiled function is
assigned to the layer of its module:

* ``repro.<pkg>`` for ``pkg`` in :data:`LAYERS` gives that layer, with
  ``repro.nic.lauberhorn`` split out of ``repro.nic``;
* other ``repro`` subpackages and the benchmark's own driver code go to
  ``other``;
* stdlib and builtin functions have no layer of their own: their self
  time goes to the layer that called them, following the caller edges
  cProfile records (through stdlib-to-stdlib calls if need be).

``calls_in`` counts calls into a layer whose caller is in another layer.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Optional

LAYERS = ("sim", "hw", "net", "nic", "nic.lauberhorn", "os", "rpc",
          "workloads", "obs", "check", "tenancy", "other")

_SINGLE = frozenset(("sim", "hw", "net", "os", "rpc", "workloads", "obs",
                     "check", "tenancy"))
#: fields of a cProfile caller edge: (calls, primitive calls, tt, ct)
_NC, _CT = 0, 3
_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for stdlib/builtins."""
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "other"
    at = filename.rfind(_REPRO)
    if at < 0:
        return None
    parts = filename[at + len(_REPRO):].split(os.sep)
    if parts[0] == "nic":
        return "nic.lauberhorn" if parts[1] == "lauberhorn" else "nic"
    return parts[0] if parts[0] in _SINGLE else "other"


class LayerSplit:
    """Self time and cross-layer call counts per layer."""

    def __init__(self, profiler):
        self.stats = pstats.Stats(profiler).stats
        self.own = {func: layer_of(func[0]) for func in self.stats}
        self._dist: dict = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0)
        self._split()

    def _weights(self, func, by, visiting=frozenset()) -> dict:
        """How a layerless function splits over the layers that call it.

        ``by`` picks the caller-edge field to weigh with: ``_CT``
        (cumulative time, for self time) or ``_NC`` (call counts, which
        keep ``calls_in`` exact).
        """
        own = self.own.get(func, "other")
        if own is not None:
            return {own: 1.0}
        if (func, by) in self._dist:
            return self._dist[func, by]
        callers = self.stats[func][4] if func in self.stats else {}
        mixed: dict = defaultdict(float)
        for caller, edge in callers.items():
            if caller in visiting or caller == func:
                continue
            for layer, share in self._weights(caller, by,
                                              visiting | {func}).items():
                mixed[layer] += edge[by] * share
        total = sum(mixed.values())
        result = ({layer: value / total for layer, value in mixed.items()}
                  if total else {"other": 1.0})
        if not visiting:
            self._dist[func, by] = result
        return result

    def _layer_at(self, func) -> str:
        weights = self._weights(func, _NC)
        return max(sorted(weights), key=weights.get)

    def _split(self) -> None:
        for func, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            own = self.own[func]
            if own is not None:
                self.self_s[own] += tt
                for caller, edge in callers.items():
                    if self._layer_at(caller) != own:
                        self.calls_in[own] += edge[0]
                continue
            edge_tt = sum(edge[2] for edge in callers.values())
            if not callers or edge_tt <= 0:
                for layer, share in self._weights(func, _CT).items():
                    self.self_s[layer] += tt * share
                continue
            for caller, edge in callers.items():
                for layer, share in self._weights(caller, _CT).items():
                    self.self_s[layer] += tt * (edge[2] / edge_tt) * share

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def calls_to_file(self, suffix: str) -> int:
        """Calls into functions of one source file from outside it."""
        count = 0
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if not func[0].endswith(suffix):
                continue
            count += sum(edge[0] for caller, edge in callers.items()
                         if not caller[0].endswith(suffix))
        return count

    def metrics(self) -> dict:
        total = self.total_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = (self.self_s[layer] / total
                                     if total else 0.0)
            out[f"{layer}.calls_in"] = self.calls_in[layer]
        return out
