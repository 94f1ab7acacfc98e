"""The batched measurement engine.

:class:`MeasurementEngine` turns the serial measurement loops of the
seed implementation into stacked-array batch runs:

* a single two-state NF measurement (:meth:`MeasurementEngine.measure`)
  acquires hot and cold records as one ``(2, n_samples)`` batch;
* a repeated measurement (:meth:`MeasurementEngine.run_batch`) stacks
  all ``2 * n_repeats`` records and produces every repeat's
  :class:`~repro.core.bist.BISTResult` from one batched Welch pass over
  the ``(n_records, n_segments, nperseg)`` framing;
* a multi-device screen (:meth:`MeasurementEngine.measure_devices`)
  stacks records across *different* DUT models — each device's analog
  chain runs with its own parameters and per-record noise densities,
  is digitized against its own reference, and every record shares one
  batched Welch pass;
* parameter sweeps (:meth:`MeasurementEngine.map_sweep`) fan out over
  tasks with per-task child seeds.

``MeasurementEngine`` is the one measurement object: it owns its worker
pool (process backend) and its result store.  Planned screens run as
``plan_measurements(tasks).run(engine)`` (see
:mod:`repro.engine.scheduler`).

The process backend has one rule: whole measurements and sweep tasks
go to the pool, nothing smaller.  ``run_batch`` and
``measure_devices`` split their repeats / devices into one contiguous
chunk per pool worker, and each worker measures its chunk start to end
(acquire, digitize, Welch, Y-factor estimate) and sends back only the
results; ``map_sweep`` sends each task to the pool; a single
``measure`` stays in-process.

Records travel packed (1 bit/sample,
:class:`~repro.bitstream.PackedRecordBatch`), as the BIST latch keeps
them in SoC memory: every acquirer hands back packed batches and the
packed Welch unpacks one FFT block at a time.  Every record of every
path comes from one call, ``acquire_bitstreams``.

Random-number discipline: the engine spawns child generators in exactly
the order the serial code paths do (``estimator.measure`` spawns
``(hot, cold)``; ``RepeatedMeasurement`` spawns one child per repeat
which then spawns ``(hot, cold)``), so every record is bit-exact equal
to its serial counterpart and results are reproducible from one seed.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import (
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.bitstream import PackedRecordBatch
from repro.core.bist import (
    BISTResult,
    OneBitNoiseFigureBIST,
    check_bitstream_samples,
)
from repro.dsp.psd import welch_batch
from repro.dsp.spectrum import SpectrumBatch
from repro.errors import ConfigurationError, MeasurementError
from repro import obs
from repro.signals.batch_rng import validate_rng_mode
from repro.signals.random import GeneratorLike, make_rng, spawn_rngs
from repro.store.keys import measurement_key
from repro.store.store import ResultStore

from repro.engine.scheduler import RetryPolicy, WorkerPool

_BACKENDS = ("serial", "process")

#: Store interaction modes: whether cached results are consulted
#: (``read``) and whether fresh results are persisted (``write``).
_CACHE_MODES = ("off", "read", "write", "readwrite")

#: Single-measurement writes between engine-side budget checks;
#: bounding the store costs a tree walk, so it is amortized.
_BUDGET_CHECK_EVERY = 32


@runtime_checkable
class BatchAcquirer(Protocol):
    """Anything that can capture a batch of bitstreams.

    Implementations return ``(records, sample_rate)`` where ``records``
    is a :class:`~repro.bitstream.PackedRecordBatch` with one row per
    requested state, row ``i`` the record for ``(states[i], rngs[i])``
    — bit-exact equal to the corresponding serial acquisition when
    unpacked.  Both :class:`~repro.instruments.testbench.
    PrototypeTestbench` and :class:`~repro.experiments.matlab_sim.
    MatlabSimulation` implement this protocol, and both take the
    optional ``rng_mode`` keyword.
    """

    def acquire_bitstreams(
        self, states: Sequence[str], rngs: Sequence[GeneratorLike]
    ) -> Tuple[PackedRecordBatch, float]: ...


def _accepts_kwarg(fn, name: str) -> bool:
    """Whether a callable takes a keyword argument.

    A ``**kwargs`` parameter counts, so a wrapper forwards the knob to
    what it wraps; third-party callables that predate ``rng_mode=``
    keep working — the engine only forwards knobs a signature admits.
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return name in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


class MeasurementEngine:
    """Vectorized batch runner for 1-bit NF measurements and sweeps.

    Parameters
    ----------
    backend:
        ``"serial"`` keeps everything in-process (stacked-array
        batches); ``"process"`` additionally fans :meth:`map_sweep`
        tasks and the chunks of :meth:`run_batch` and
        :meth:`measure_devices` over a persistent worker pool (a
        single :meth:`measure` stays in-process).  A process engine
        lazily creates — and owns — its pool on first fan-out; call
        :meth:`close` (or use the engine as a context manager) to
        release its worker processes.
    max_workers:
        Worker cap for the process backend (default: CPU count).
    rng_mode:
        Noise-synthesis mode threaded to every acquirer that accepts
        it (see :mod:`repro.signals.batch_rng`): ``"compat"``
        (default) replays the per-record ``default_rng`` streams bit
        for bit; ``"philox"`` is the fast mode — counter-based
        synthesis: direct Bernoulli bits for
        :class:`~repro.experiments.matlab_sim.MatlabSimulation`, one
        shaped spectrum per record for the
        :class:`~repro.instruments.testbench.PrototypeTestbench`
        analog chain.  The mode selects synthesis only:
        both modes analyze records with the same exact packed Welch,
        so equal records give equal spectra.  Philox results are
        deterministic per seed and statistically equivalent to
        compat, not bit-identical.
    store:
        A :class:`~repro.store.ResultStore` to consult and fill.  With
        one attached, :meth:`measure` computes each measurement's
        provenance key (:meth:`task_key`) and returns the stored
        result on a hit — bit-identical to a recompute by the store's
        serialization contract — and planned runs
        (:class:`~repro.engine.scheduler.MeasurementPlan`) persist and
        resume through the same keys.  Uncacheable tasks
        (``rng=None``, unfingerprintable sources) transparently bypass
        the store.
    cache:
        Store interaction mode: ``"readwrite"`` (default), ``"read"``
        (hit but never write — e.g. frozen golden stores), ``"write"``
        (record but never trust — cache-warming / validation runs) or
        ``"off"``.  Ignored without a ``store``.
    retry:
        A :class:`~repro.engine.scheduler.RetryPolicy` the engine's
        worker pool runs under (task retries with backoff, hung-worker
        timeouts, pool respawn budget).  ``None`` uses the pool's
        defaults.
    cache_budget_bytes:
        Bound the attached store to a byte budget: after writes the
        engine evicts oldest entries (lot manifests stay pinned) until
        live payload bytes fit (see :meth:`ResultStore.evict
        <repro.store.ResultStore.evict>`).  Eviction is cache
        management — every evicted payload is recomputable from its
        provenance.  ``None`` (default) leaves the store unbounded.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        rng_mode: str = "compat",
        store: Optional[ResultStore] = None,
        cache: str = "readwrite",
        retry: Optional[RetryPolicy] = None,
        cache_budget_bytes: Optional[int] = None,
    ):
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        if cache not in _CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {_CACHE_MODES}, got {cache!r}"
            )
        if store is not None and not isinstance(store, ResultStore):
            raise ConfigurationError(
                f"store must be a ResultStore, got {type(store).__name__}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if cache_budget_bytes is not None and cache_budget_bytes < 1:
            raise ConfigurationError(
                f"cache_budget_bytes must be >= 1, got {cache_budget_bytes}"
            )
        self.backend = backend
        self.max_workers = max_workers
        self.rng_mode = validate_rng_mode(rng_mode)
        self.store = store
        self.cache = cache
        self.retry = retry
        self.cache_budget_bytes = (
            int(cache_budget_bytes) if cache_budget_bytes is not None else None
        )
        self._pool: Optional[WorkerPool] = None
        # Writes since the last budget check — bounding the store is
        # O(entries), so it runs every _BUDGET_CHECK_EVERY single
        # writes (and after every group persist), not per write.
        self._budget_writes = 0

    # ------------------------------------------------------------------
    # Result store
    # ------------------------------------------------------------------
    @property
    def cache_reads(self) -> bool:
        """Whether stored results are consulted before measuring."""
        return self.store is not None and self.cache in ("read", "readwrite")

    @property
    def cache_writes(self) -> bool:
        """Whether fresh results are persisted to the store."""
        return self.store is not None and self.cache in ("write", "readwrite")

    def task_key(
        self,
        source,
        estimator: OneBitNoiseFigureBIST,
        rng: GeneratorLike,
    ) -> Optional[str]:
        """Content address of ``measure(source, estimator, rng)``.

        ``None`` when no store is attached or the task is uncacheable —
        an OS-entropy seed (``rng=None``) or a source the fingerprinter
        cannot reduce deterministically.  Uncacheable tasks simply run
        without store participation; they are never an error.
        """
        if self.store is None:
            return None
        try:
            return measurement_key(
                source, estimator, rng, rng_mode=self.rng_mode
            )
        except (ConfigurationError, TypeError, ValueError):
            # Unfingerprintable source/estimator: uncacheable, not fatal.
            return None

    def persist_results(self, items: Sequence[Tuple[str, BISTResult]]) -> int:
        """Persist ``(key, result)`` pairs; returns how many were new.

        The parent writes every payload: results are small, and keeping
        the writes here keeps the store's fault sites and their
        deterministic decision streams in one process.
        """
        items = [
            (key, result)
            for key, result in items
            if key is not None and result is not None
        ]
        if not items or not self.cache_writes:
            return 0
        written = sum(
            bool(self.store.put_result(key, result)) for key, result in items
        )
        obs.inc("engine.persist_parent", len(items))
        self._budget_writes += written
        self._maybe_enforce_budget(force=True)
        return written

    def _maybe_enforce_budget(self, force: bool = False) -> None:
        """Evict down to ``cache_budget_bytes`` when due (amortized)."""
        if self.cache_budget_bytes is None or self.store is None:
            return
        if not force and self._budget_writes < _BUDGET_CHECK_EVERY:
            return
        self._budget_writes = 0
        self.store.evict(self.cache_budget_bytes)

    # ------------------------------------------------------------------
    # Pool lifetime
    # ------------------------------------------------------------------
    @property
    def worker_pool(self) -> Optional[WorkerPool]:
        """The persistent pool behind every process fan-out.

        Created lazily (spawning workers costs real time, so a
        ``"process"`` engine that never fans out never pays it) and
        reused across ``map_sweep`` calls and measurement chunks.
        ``None`` on the in-process backend.
        """
        if self.backend != "process":
            return None
        if self._pool is None:
            self._pool = WorkerPool(
                max_workers=self.max_workers, policy=self.retry
            )
        return self._pool

    def close(self) -> None:
        """Release the engine's worker processes (idempotent).

        The engine remains usable — the next fan-out respawns.
        """
        if self._pool is not None:
            self._pool.close()
        self._maybe_enforce_budget(force=True)

    def __enter__(self) -> "MeasurementEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batched spectral estimation
    # ------------------------------------------------------------------
    def spectra_of(
        self,
        records: Union[np.ndarray, PackedRecordBatch],
        sample_rate: float,
        estimator: OneBitNoiseFigureBIST,
    ) -> SpectrumBatch:
        """Welch PSDs of stacked bitstream records, batched.

        The batch counterpart of ``estimator.spectrum_of``: one blocked
        batched FFT pipeline over the ``(n_records, n_segments,
        nperseg)`` framing, with the estimator's analysis parameters.
        ``records`` may be a float stack or a
        :class:`~repro.bitstream.PackedRecordBatch`.  Always runs in
        this process, on either backend: the process backend fans out
        whole measurements, and this pass is part of one.
        """
        config = estimator.config
        with obs.timed("engine.welch_seconds"):
            return welch_batch(
                records,
                nperseg=config.nperseg,
                sample_rate=sample_rate,
                window=config.window,
                overlap=config.overlap,
                detrend=True,
            )

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def measure(
        self,
        source: BatchAcquirer,
        estimator: OneBitNoiseFigureBIST,
        rng: GeneratorLike = None,
    ) -> BISTResult:
        """One two-state NF measurement with batched hot/cold records.

        Mirrors ``estimator.measure(source.acquire_bitstream, rng)``
        (same generator spawning, bit-exact records) but acquires both
        states as one stacked batch and shares one batched Welch pass.

        With a :class:`~repro.store.ResultStore` attached (``store=`` /
        ``cache=``), the measurement's provenance key is consulted
        first: a stored result is returned as-is (bit-identical to a
        recompute), and a miss measures normally and persists.
        Uncacheable tasks (``rng=None``) bypass the store entirely.
        """
        # Key on the caller's seed, not the resolved generator — an
        # OS-entropy run (rng=None) must stay uncacheable even though
        # the generator it resolves to has a readable state.
        key = self.task_key(source, estimator, rng)
        gen = make_rng(rng)
        obs.inc("engine.measurements")
        if key is not None and self.cache_reads:
            cached = self.store.get_result(key)
            if cached is not None:
                # Consume the same lineage a cold measure would: a
                # caller reusing this generator must see identical
                # spawn counts whether the store hit or not.
                spawn_rngs(gen, 2)
                obs.inc("engine.store_hits")
                return cached
            obs.inc("engine.store_misses")
        rng_hot, rng_cold = spawn_rngs(gen, 2)
        result = self._measure_pairs(
            source, estimator, [(rng_hot, rng_cold)], allow_failures=False
        )[0]
        if key is not None and self.cache_writes:
            self.store.put_result(key, result)
            self._budget_writes += 1
            self._maybe_enforce_budget()
        return result

    def run_batch(
        self,
        source: BatchAcquirer,
        estimator: OneBitNoiseFigureBIST,
        n_repeats: int,
        rng: GeneratorLike = None,
        allow_failures: bool = False,
    ) -> List[Optional[BISTResult]]:
        """``n_repeats`` independent NF measurements as one batch.

        Mirrors the serial repeat loop of
        :class:`~repro.core.averaging.RepeatedMeasurement`: one child
        generator per repeat, each spawning its own hot/cold pair.  All
        ``2 * n_repeats`` records are acquired as a single stack and
        measured from one batched Welch pass.

        On the ``"process"`` backend the repeats are split into
        ``min(max_workers, n_repeats)`` contiguous chunks, and each pool
        worker measures its chunk start to end, exactly as
        :meth:`measure_devices` does with devices.  The generator pairs
        are spawned here and travel with the chunks, so results are
        bit-identical across backends.

        Returns one entry per repeat, in order.  With
        ``allow_failures``, repeats whose reference line is lost
        (:class:`~repro.errors.MeasurementError`) yield ``None`` instead
        of aborting the batch.
        """
        if n_repeats < 1:
            raise ConfigurationError(
                f"n_repeats must be >= 1, got {n_repeats}"
            )
        gen = make_rng(rng)
        pairs = [
            tuple(spawn_rngs(child, 2)) for child in spawn_rngs(gen, n_repeats)
        ]
        if self.worker_pool is None:
            return self._measure_pairs(
                source, estimator, pairs, allow_failures
            )
        return self._fan_out(
            _measure_repeat_chunk,
            len(pairs),
            lambda s: (source, estimator, pairs[s], allow_failures),
        )

    def _acquire(
        self,
        source: BatchAcquirer,
        states: Sequence[str],
        rngs: Sequence[GeneratorLike],
    ) -> Tuple[PackedRecordBatch, float]:
        """Acquire one packed record per ``(states[i], rngs[i])``.

        The engine's ``rng_mode`` travels along to acquirers whose
        signature accepts it; acquirers without the knob stay on their
        (compat) path.  Anything but a
        :class:`~repro.bitstream.PackedRecordBatch` with one row per
        state is a :class:`~repro.errors.ConfigurationError`.
        """
        acquire = source.acquire_bitstreams
        kwargs = {}
        if self.rng_mode != "compat" and _accepts_kwarg(acquire, "rng_mode"):
            kwargs["rng_mode"] = self.rng_mode
        with obs.timed("engine.acquire_seconds"):
            records, sample_rate = acquire(states, rngs, **kwargs)
        if (
            not isinstance(records, PackedRecordBatch)
            or records.n_records != len(states)
        ):
            got = (
                f"{records.n_records} packed records"
                if isinstance(records, PackedRecordBatch)
                else type(records).__name__
            )
            raise ConfigurationError(
                f"acquire_bitstreams must return a PackedRecordBatch of "
                f"{len(states)} records, got {got}"
            )
        return records, float(sample_rate)

    def _measure_pairs(
        self,
        source: BatchAcquirer,
        estimator: OneBitNoiseFigureBIST,
        pairs: Sequence[Tuple[np.random.Generator, np.random.Generator]],
        allow_failures: bool,
    ) -> List[Optional[BISTResult]]:
        states: List[str] = []
        rngs: List[np.random.Generator] = []
        for rng_hot, rng_cold in pairs:
            states += ["hot", "cold"]
            rngs += [rng_hot, rng_cold]
        records, sample_rate = self._acquire(source, states, rngs)
        if sample_rate != estimator.config.sample_rate_hz:
            raise ConfigurationError(
                f"acquired sample rate {sample_rate} Hz does not match "
                f"configured {estimator.config.sample_rate_hz} Hz"
            )
        check_bitstream_samples(records, "batched")
        batch = self.spectra_of(records, sample_rate, estimator)
        return self._estimate_pairs(
            batch, [estimator] * len(pairs), allow_failures
        )

    def _estimate_pairs(
        self,
        batch: SpectrumBatch,
        estimators: Sequence[OneBitNoiseFigureBIST],
        allow_failures: bool,
    ) -> List[Optional[BISTResult]]:
        """Per-pair Y-factor estimation over a hot/cold-interleaved batch."""
        results: List[Optional[BISTResult]] = []
        for i, estimator in enumerate(estimators):
            try:
                results.append(
                    estimator.estimate_from_spectra(batch[2 * i], batch[2 * i + 1])
                )
            except MeasurementError:
                if not allow_failures:
                    raise
                results.append(None)
        return results

    # ------------------------------------------------------------------
    # Multi-device batching
    # ------------------------------------------------------------------
    def measure_devices(
        self,
        sources: Sequence[BatchAcquirer],
        estimators: Union[
            OneBitNoiseFigureBIST, Sequence[OneBitNoiseFigureBIST]
        ],
        rng: GeneratorLike = None,
        rngs: Optional[Sequence[GeneratorLike]] = None,
        allow_failures: bool = False,
    ) -> List[Optional[BISTResult]]:
        """One NF measurement per device, stacked into batches.

        Every entry of ``sources`` is a bench with its own DUT model
        (its own noise densities, gains, reference amplitude and
        digitizer).  Each device's ``(hot, cold)`` generator pair is
        spawned here, exactly as :meth:`measure` would spawn it, and
        goes through the same ``acquire_bitstreams`` call; the packed
        records of every device then share one batched Welch pass — so
        device ``i``'s result is bit-exact equal to
        ``measure(sources[i], estimators[i], rng=rngs[i])``.

        On the ``"serial"`` backend the whole screen is one batch in
        this process.  On the ``"process"`` backend the devices are
        split into ``min(max_workers, n_devices)`` contiguous chunks,
        one per pool worker, and each worker runs the whole chain for
        its chunk (acquire, digitize, Welch, Y-factor estimate) and
        sends back only the results.  One chunk per worker keeps each
        Welch pass wide; the generator pairs travel with the chunk, so
        the caller's generators are consumed identically on both
        backends and a retried chunk replays bit for bit.  A worker's
        :class:`~repro.errors.MeasurementError` reaches the caller as
        the same exception, without a retry.

        Peak memory stays one device wide per process: each device's
        acquisition returns packed records, so only the 1-bit records
        accumulate.

        ``estimators`` is one estimator per device (or a single shared
        one); all must share the same analysis parameters, and every
        bench must produce records of the same length and output
        sample rate (:func:`~repro.engine.scheduler.plan_measurements`
        groups heterogeneous screens into compatible batches).
        """
        sources = list(sources)
        if not sources:
            raise ConfigurationError("need at least one device")
        if isinstance(estimators, OneBitNoiseFigureBIST):
            estimators = [estimators] * len(sources)
        else:
            estimators = list(estimators)
        if len(estimators) != len(sources):
            raise ConfigurationError(
                f"got {len(sources)} devices but {len(estimators)} estimators"
            )
        if rngs is None:
            rngs = spawn_rngs(make_rng(rng), len(sources))
        else:
            rngs = list(rngs)
            if len(rngs) != len(sources):
                raise ConfigurationError(
                    f"got {len(sources)} devices but {len(rngs)} generators"
                )
        config = estimators[0].config
        for estimator in estimators[1:]:
            other = estimator.config
            if (
                other.nperseg != config.nperseg
                or other.window != config.window
                or other.overlap != config.overlap
                or other.sample_rate_hz != config.sample_rate_hz
            ):
                raise ConfigurationError(
                    "multi-device batching needs identical analysis "
                    "parameters across estimators (nperseg/window/"
                    "overlap/sample rate); plan heterogeneous screens "
                    "with plan_measurements"
                )
        pairs = [tuple(spawn_rngs(make_rng(r), 2)) for r in rngs]
        if self.worker_pool is None:
            return self._measure_devices_local(
                sources, estimators, pairs, allow_failures
            )
        return self._fan_out(
            _measure_device_chunk,
            len(sources),
            lambda s: (sources[s], estimators[s], pairs[s], allow_failures),
        )

    def _fan_out(
        self,
        task: Callable,
        n_items: int,
        chunk_args: Callable[[slice], tuple],
    ) -> List[Optional[BISTResult]]:
        """Measure ``n_items`` in one contiguous chunk per pool worker.

        ``chunk_args(s)`` builds the arguments of the chunk covering
        items ``s``; ``task`` (module-level, so the pool can pickle it)
        measures them on an in-process engine configured like this
        one.  Results come back in item order.
        """
        pool = self.worker_pool
        settings = {"rng_mode": self.rng_mode}
        chunks = np.array_split(
            np.arange(n_items), min(pool.max_workers, n_items)
        )
        payloads = [
            (settings, *chunk_args(slice(c[0], c[-1] + 1))) for c in chunks
        ]
        return [result for out in pool.map(task, payloads) for result in out]

    def _measure_devices_local(
        self,
        sources: Sequence[BatchAcquirer],
        estimators: Sequence[OneBitNoiseFigureBIST],
        pairs: Sequence[Tuple[np.random.Generator, np.random.Generator]],
        allow_failures: bool,
    ) -> List[Optional[BISTResult]]:
        """The whole chain of :meth:`measure_devices`, in this process.

        Each device's ``(hot, cold)`` pair goes through the same
        ``acquire_bitstreams`` call :meth:`measure` makes, with its
        pre-spawned generators; the packed pairs are then stacked into
        one batched Welch pass and the per-device Y-factor estimates.
        """
        obs_t0 = time.monotonic() if obs.enabled() else 0.0
        device_records = [
            self._acquire(source, ["hot", "cold"], pair)[0]
            for source, pair in zip(sources, pairs)
        ]
        # Stacking rejects records of different lengths or rates.
        records = PackedRecordBatch.from_records(
            [rec[i] for rec in device_records for i in range(2)]
        )
        out_rate = records.sample_rate
        config = estimators[0].config
        if out_rate != config.sample_rate_hz:
            raise ConfigurationError(
                f"acquired sample rate {out_rate} Hz does not match "
                f"configured {config.sample_rate_hz} Hz"
            )
        check_bitstream_samples(records, "multi-device")
        if obs_t0:
            obs.observe(
                "engine.acquire_devices_seconds",
                time.monotonic() - obs_t0,
            )
            obs.inc("engine.devices_acquired", len(sources))
        spectra = self.spectra_of(records, out_rate, estimators[0])
        return self._estimate_pairs(spectra, estimators, allow_failures)

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def map_sweep(
        self,
        fn: Callable,
        tasks: Sequence,
        seed: GeneratorLike = None,
        rngs: Optional[Sequence[GeneratorLike]] = None,
    ) -> List:
        """Run ``fn(task, rng)`` over independent sweep tasks, in order.

        Each task receives its own child generator — spawned from
        ``seed`` unless an explicit ``rngs`` sequence is given (use the
        latter to keep seed-compatibility with an existing serial
        sweep).  The ``"process"`` backend distributes tasks over the
        engine's persistent :class:`~repro.engine.scheduler.WorkerPool`
        (spawned once, reused across sweeps until :meth:`close`); since
        the generators travel with the tasks, results are identical
        across backends.  ``fn`` and the tasks must pickle for the
        process backend (``fn`` module-level).

        A non-compat engine ``rng_mode`` is forwarded to workers whose
        signature accepts an ``rng_mode`` keyword (as a
        ``functools.partial``, so process-backend pickling still sees
        the module-level function); workers without the knob keep
        their own (compat) synthesis.
        """
        tasks = list(tasks)
        if rngs is None:
            rngs = spawn_rngs(make_rng(seed), len(tasks))
        else:
            rngs = list(rngs)
            if len(rngs) != len(tasks):
                raise ConfigurationError(
                    f"got {len(tasks)} tasks but {len(rngs)} generators"
                )
        if not tasks:
            return []
        if self.rng_mode != "compat" and _accepts_kwarg(fn, "rng_mode"):
            fn = functools.partial(fn, rng_mode=self.rng_mode)
        if self.worker_pool is not None:
            return self.worker_pool.map(
                _sweep_task, [(fn, task, rng) for task, rng in zip(tasks, rngs)]
            )
        return [fn(task, rng) for task, rng in zip(tasks, rngs)]


def _sweep_task(payload):
    """Pool task: one :meth:`MeasurementEngine.map_sweep` task."""
    fn, task, rng = payload
    return fn(task, rng)


def _measure_device_chunk(payload) -> List[Optional[BISTResult]]:
    """Pool task: one contiguous chunk of a :meth:`MeasurementEngine.
    measure_devices` call, on an in-process engine configured like the
    dispatching one (module-level so the pool can pickle it)."""
    settings, sources, estimators, pairs, allow_failures = payload
    return MeasurementEngine(**settings)._measure_devices_local(
        sources, estimators, pairs, allow_failures
    )


def _measure_repeat_chunk(payload) -> List[Optional[BISTResult]]:
    """Pool task: one contiguous chunk of a :meth:`MeasurementEngine.
    run_batch` call; only the results travel back, not the records."""
    settings, source, estimator, pairs, allow_failures = payload
    return MeasurementEngine(**settings)._measure_pairs(
        source, estimator, pairs, allow_failures
    )
