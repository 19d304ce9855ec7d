"""Recovery policies: lineage as the recovery log.

One :class:`ResilienceManager` is shared by a session's memory manager,
lineage cache, buffer pool, and interpreter.  It owns the fault injector
(built from ``LimaConfig.fault_specs`` plus the ``LIMA_INJECT_FAULT``
environment variable), the :class:`~repro.resilience.stats.ResilienceStats`
counters, and the two recovery primitives:

* :meth:`ResilienceManager.read_spill` — restore a spilled array,
  retrying *transient* failures (``OSError`` other than a missing file)
  with bounded exponential backoff.  Corruption
  (:class:`~repro.errors.SpillCorruptionError`) is never retried — the
  bytes on disk are wrong and will stay wrong.
* :meth:`ResilienceManager.recompute_item` — rebuild a value from its
  lineage trace via :func:`repro.lineage.reconstruct.recompute`, binding
  ``input``-leaf lineage to the session inputs registered through
  :meth:`ResilienceManager.register_input`.  Recorded system seeds make
  ``rand``/``sample`` replay bit-identically, so a recovered value equals
  the lost one exactly.

The lineage cache composes these into its restore path: retry, then
recompute, then — if even the trace cannot be replayed — degrade the
entry to a plain cache miss so normal execution recomputes it in place.
Nothing short of losing a *live* (lineage-less) variable is fatal.
"""

from __future__ import annotations

import threading
import time

from repro.errors import LimaError, SpillCorruptionError
from repro.resilience.faults import FaultInjector, FaultSite, env_fault_specs
from repro.resilience.stats import ResilienceStats


class ResilienceManager:
    """Fault injector + recovery policies + stats for one session."""

    def __init__(self, config=None, *, specs=None, stats=None):
        self.config = config
        self.stats = stats if stats is not None else ResilienceStats()
        if specs is None:
            # env specs first, config specs second: an explicit config
            # spec overrides an env-armed spec for the same point
            specs = list(env_fault_specs())
            specs.extend(getattr(config, "fault_specs", ()) or ())
        self.injector = (FaultInjector(specs, stats=self.stats)
                         if specs else None)
        self.spill_retries = int(getattr(config, "spill_retries", 3) or 0)
        self.retry_backoff = float(getattr(config, "retry_backoff", 0.01))
        self.parfor_retries = int(getattr(config, "parfor_retries", 2) or 0)
        #: session inputs by name, for re-binding ``input``-leaf lineage
        self._inputs: dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # fault sites
    # ------------------------------------------------------------------

    def site(self, point: str) -> FaultSite | None:
        """The armed fault site for ``point`` (``None`` when unarmed)."""
        if self.injector is None:
            return None
        return self.injector.site(point)

    # ------------------------------------------------------------------
    # the recovery log: session inputs referenced by lineage leaves
    # ------------------------------------------------------------------

    def register_input(self, name: str, value, token: str | None = None) -> None:
        """Remember a session input so lineage recovery can re-bind it.

        ``token`` is the full ``input``-leaf payload (``name:digest``)
        when known.  Registering under the content-fingerprinted token as
        well makes recovery correct across *service* sessions that bind
        different arrays to the same input name: the digest-keyed entry
        is preferred at recompute time, the bare name stays as the
        single-session fallback.
        """
        with self._lock:
            self._inputs[name] = value
            if token is not None and token != name:
                self._inputs[token] = value

    def bound_inputs(self, item) -> dict:
        """The ``inputs`` mapping that replays ``item``'s trace.

        Each ``input`` leaf is bound by its content-fingerprinted token
        first: under the concurrent service, several sessions may bind
        different arrays to one name.  Raises :class:`LimaError` for a
        leaf whose input was never registered.
        """
        inputs = {}
        for node in item.iter_dag():
            if node.opcode == "input":
                name = node.data.split(":", 1)[0]
                with self._lock:
                    value = self._inputs.get(node.data,
                                             self._inputs.get(name))
                if value is None:
                    raise LimaError(f"input {name!r} is not registered "
                                    "for lineage recovery")
                inputs[name] = value
        return inputs

    # ------------------------------------------------------------------
    # spill-read retry (transient errors only)
    # ------------------------------------------------------------------

    def read_spill(self, backend, path: str):
        """Read+verify a spill file with bounded exponential backoff.

        Transient ``OSError``/``MemoryError`` failures are retried up to
        ``spill_retries`` times (delay doubling from ``retry_backoff``);
        corruption and a missing file are re-raised immediately — the
        caller's next recovery tier (lineage recomputation) takes over.
        """
        attempt = 0
        delay = self.retry_backoff
        while True:
            try:
                data = backend.read(path)
                if attempt:
                    self.stats.spill_reads_recovered += 1
                return data
            except SpillCorruptionError:
                self.stats.checksum_failures += 1
                raise
            except FileNotFoundError:
                raise
            except (OSError, MemoryError):
                if attempt >= self.spill_retries:
                    raise
                attempt += 1
                self.stats.spill_read_retries += 1
                # a cancelled/expired session must not sit out the
                # backoff ladder: check its budget between retries
                from repro.service.budget import check_active_budget
                check_active_budget()
                time.sleep(delay)
                delay *= 2

    # ------------------------------------------------------------------
    # lineage-based recomputation
    # ------------------------------------------------------------------

    def recompute_item(self, item):
        """Rebuild a value from its lineage trace; ``None`` on failure.

        ``input``-leaf lineage is re-bound to the registered session
        inputs; recorded seeds make data generation replay exactly, so
        success means a bit-identical value.
        """
        if item is None:
            return None
        from repro.lineage.reconstruct import recompute
        try:
            value = recompute(item, self.bound_inputs(item))
        except Exception:
            self.stats.recompute_failures += 1
            return None
        self.stats.recomputes += 1
        return value

    def recompute_any(self, *items):
        """First successful recomputation among candidate lineage roots.

        Cache entries carry two roots: the fine-grained output lineage
        (replayable even for multi-level ``fcall``/``bcall`` keys) and
        the cache key itself.  Either one reproduces the value.
        """
        tried: list = []
        for item in items:
            if item is None or any(item is seen for seen in tried):
                continue
            tried.append(item)
            value = self.recompute_item(item)
            if value is not None:
                return value
        return None

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-line summary for CLI stats output."""
        armed = (",".join(sorted(s.spec.point for s in
                                 self.injector.sites()))
                 if self.injector else "-")
        stats = self.stats
        return (f"resilience: recoveries={stats.recoveries} "
                f"faults={stats.faults_injected} "
                f"checksum_fail={stats.checksum_failures} "
                f"retries={stats.spill_read_retries} "
                f"recomputes={stats.recomputes} "
                f"degraded={stats.degraded_events} armed=[{armed}]")
