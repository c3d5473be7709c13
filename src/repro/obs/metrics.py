"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` per instrumented object (a
:class:`~repro.datalog.engine.DatalogEngine`, an
:class:`~repro.db.database.EpistemicDatabase`) holds every number that
object reports; ``engine.metrics()`` / ``db.metrics()`` give one flat
snapshot of everything (the engine merges the plain
:class:`~repro.datalog.engine.EvaluationStatistics` of its last
evaluation in as ``engine.*``).

Instruments are plain mutable objects, not locks-and-atomics: the
evaluation machinery is single-threaded, so the registry does not pay for
synchronisation on every increment.
"""

from bisect import insort


class Counter:
    """A monotonically meant, mutably implemented integer instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def inc(self, amount=1):
        """Add *amount* (default 1) and return the new value."""
        self.value += amount
        return self.value

    def reset(self, value=0):
        """Set the value (default 0)."""
        self.value = value

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def set(self, value):
        """Set the current value and return it."""
        self.value = value
        return value

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A distribution instrument: observations kept sorted for exact
    percentiles (the populations here — batch sizes, span durations — are
    small; exactness beats approximate sketches)."""

    __slots__ = ("name", "values", "total")

    def __init__(self, name):
        self.name = name
        self.values = []
        self.total = 0

    def observe(self, value):
        """Add one observation (kept sorted for the percentile reads)."""
        insort(self.values, value)
        self.total += value

    @property
    def count(self):
        """How many observations have been recorded."""
        return len(self.values)

    def percentile(self, q):
        """The *q*-th percentile (0..100) by nearest-rank, ``None`` when
        empty."""
        values = self.values
        if not values:
            return None
        rank = max(0, min(len(values) - 1, int(round(q / 100.0 * (len(values) - 1)))))
        return values[rank]

    def snapshot(self):
        """``{count, total, p50, p99}`` as a plain dict."""
        return {
            "count": self.count,
            "total": self.total,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsRegistry:
    """A flat namespace of instruments, created on first use.

    Names are dotted paths (``"engine.iterations"``,
    ``"query.calls"``, ``"db.commits"``); :meth:`snapshot`
    returns them as one plain dict — numbers for counters and gauges,
    ``{count, total, p50, p99}`` dicts for histograms.
    """

    __slots__ = ("_instruments",)

    def __init__(self):
        self._instruments = {}

    def _get(self, name, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory(name)
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {factory.__name__}"
            )
        return instrument

    def counter(self, name):
        """The :class:`Counter` named *name*, created at 0 on first use."""
        return self._get(name, Counter)

    def gauge(self, name):
        """The :class:`Gauge` named *name*, created at 0 on first use."""
        return self._get(name, Gauge)

    def histogram(self, name):
        """The :class:`Histogram` named *name*, created empty on first use."""
        return self._get(name, Histogram)

    def snapshot(self, prefix=""):
        """Every instrument's current value as a plain dict (optionally
        filtered to names starting with *prefix*)."""
        out = {}
        for name, instrument in sorted(self._instruments.items()):
            if prefix and not name.startswith(prefix):
                continue
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out

    def __contains__(self, name):
        return name in self._instruments

    def __repr__(self):
        return f"MetricsRegistry({len(self._instruments)} instruments)"

