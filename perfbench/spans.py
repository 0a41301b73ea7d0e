"""Runtime tracing of phasecode's layers, installed from the benchmark's files.

``install`` wraps the calls into each module (core, ensemble, measurement,
decoder, fourier, analysis, cli) and returns a function that restores the
originals, so untraced passes run the program exactly as shipped.

Spans live in memory as parallel arrays (name, start, end, parent, trial,
accepted flag) and are summarised by ``layer_metrics`` once a pass ends.
Functions called hundreds of thousands of times per trial with no time metric
(``mix64``, the decoder's ``modulation_coeffs``) only bump a counter.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

DECODERS = ("unicolor", "multicolor")
ENCODE = "measurement.encode"
# Spans whose descendants are attributed to them (they never nest).
REGIONS = ("decoder.decode.unicolor", "decoder.decode.multicolor", ENCODE)
_ARRAYS = ("name", "start", "end", "parent", "trial", "flag")  # one entry per span


class Tracer:
    """In-memory span store plus named counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.flag = array("b")
        self.stack = [-1]
        self.trial_id = -1
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.trial.append(self.trial_id)
        self.flag.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    # -- shipping spans out of pool workers --------------------------------

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "arrays": {k: getattr(self, k).tobytes() for k in _ARRAYS},
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def merge(self, data: dict, trial_id: int) -> None:
        """Append a worker's spans, re-tagged with this process's trial id."""
        raw = {k: np.frombuffer(data["arrays"][k], dtype=getattr(self, k).typecode) for k in _ARRAYS}
        remap = np.array([self.intern(n) for n in data["names"]], dtype=np.int32)
        parent = raw["parent"]
        parent = np.where(parent >= 0, parent + len(self.name), -1).astype(np.int32)
        self.name.frombytes(remap[raw["name"]].tobytes())
        self.parent.frombytes(parent.tobytes())
        self.trial.frombytes(np.full(len(parent), trial_id, dtype=np.int32).tobytes())
        for k in ("start", "end", "flag"):
            getattr(self, k).frombytes(raw[k].tobytes())
        for key, v in data["counts"].items():
            self.count(key, v)
        for key, v in data["peaks"].items():
            self.peak(key, v)

    def save(self, path) -> None:
        """Write every span of the pass, with its name table, as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            **{k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
               for k in _ARRAYS},
        )


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _span(tracer: Tracer, name: str, fn, accepted=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if accepted is not None and accepted(out):
            tracer.flag[i] = 1
        return out

    return traced


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    return counted


def _decode(tracer: Tracer, alg: str, fn):
    """Decode span that also records the public DecodeResult.stats."""
    inner = _span(tracer, f"decoder.decode.{alg}", fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        res = inner(*args, **kwargs)
        if res.stats is not None:
            tracer.count(f"decoder.sweeps.{alg}", res.stats.sweeps)
            tracer.count(f"decoder.processor_calls.{alg}", res.stats.processor_calls)
            tracer.peak(f"decoder.resident_elements.{alg}", res.stats.resident_elements)
        return res

    return traced


class _Delegate:
    """Attribute proxy: the given overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _fft_shim(tracer: Tracer):
    """Stand-in for the ``np`` name inside phasecode.fourier: ``np.fft.fft``
    becomes a span that also counts the bytes it reads and writes."""
    traced_fft = _span(tracer, "fourier.fft", np.fft.fft)

    def fft(a, *args, **kwargs):
        out = traced_fft(a, *args, **kwargs)
        tracer.count("fourier.fft.bytes_computed", np.asarray(a).nbytes + out.nbytes)
        return out

    return _Delegate(np, fft=_Delegate(np.fft, fft=fft))


def install(tracer: Tracer):
    """Wrap phasecode's layer boundaries; returns the function that undoes it."""
    from phasecode import analysis, cli, core, decoder, ensemble, fourier, measurement

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(orig, new):
        """Replace ``orig`` in every phasecode namespace that imported it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "phasecode":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    patch(mod, attr, new)

    def span_everywhere(orig, name, accepted=None):
        patch_everywhere(orig, _span(tracer, name, orig, accepted))

    not_none = lambda out: out is not None  # noqa: E731

    span_everywhere(core.generate_signal, "core.generate_signal")
    span_everywhere(core.align_global_phase, "core.align_global_phase")
    patch_everywhere(core.mix64, _counted(tracer, "core.mix64.calls", core.mix64))
    span_everywhere(measurement.encode, ENCODE)
    patch(decoder, "modulation_coeffs",
          _counted(tracer, "measurement.modulation_coeffs.decode.calls", decoder.modulation_coeffs))
    for alg in DECODERS:
        orig = getattr(decoder, f"decode_{alg}")
        patch_everywhere(orig, _decode(tracer, alg, orig))
    span_everywhere(decoder._resolvable_full, "decoder.resolvable",
                    lambda out: out[0] == "resolved")
    span_everywhere(decoder.process_mergeable, "decoder.mergeable", not_none)
    span_everywhere(decoder.process_singleton, "decoder.singleton", not_none)
    for meth in ("find", "union"):
        patch(decoder.ColorForest, meth,
              _span(tracer, f"decoder.forest.{meth}", getattr(decoder.ColorForest, meth)))
    for cls in (ensemble.BallsAndBinsEnsemble, ensemble.CrtEnsemble):
        patch(cls, "bins_of", _span(tracer, "ensemble.bins_of", cls.bins_of))
    span_everywhere(fourier.build_plan, "fourier.build_plan")
    span_everywhere(fourier.acquire_stage, "fourier.acquire_stage")
    patch(fourier, "np", _fft_shim(tracer))
    span_everywhere(analysis.error_floor, "analysis.error_floor")
    span_everywhere(cli.run_simulation, "cli.run_simulation")
    patch(cli, "_trial_worker", _pool_trial(tracer, cli._trial_worker))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def _pool_trial(tracer: Tracer, fn):
    """Wrapper for the harness's pool task. Forked workers inherit the
    installed wrappers; each task clears what the fork copied, runs, and ships
    its spans back on the returned TrialRecord for ``Tracer.merge``."""
    nid = tracer.intern("cli.trial")

    @functools.wraps(fn)
    def traced(args):
        tracer.clear()
        i = tracer.open(nid)
        try:
            rec = fn(args)
        finally:
            tracer.close(i)
        rec.bench_trace = tracer.export()
        return rec

    return traced


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds for one traced pass.

    ``.s`` is inclusive span time; ``decoder.self.s`` is decode time minus the
    wrapped children. Layers that did not run report 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    flag = np.frombuffer(tracer.flag, dtype=np.int8).astype(bool)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    self_time = dur - child_time

    nid = {n: i for i, n in enumerate(tracer.names)}

    def is_named(n):
        return name == nid.get(n, -1)

    # region of each span: the nearest ancestor that is a region span
    region = np.full(len(name), -1, dtype=np.int64)
    for r, n in enumerate(REGIONS):
        region[is_named(n)] = r
    pending = (region < 0) & has_parent
    anc = parent.astype(np.int64)
    while pending.any():
        found = region[anc[pending]]
        idx = np.flatnonzero(pending)
        region[idx] = found
        anc[idx] = parent[anc[idx]]
        pending = (region < 0) & (anc >= 0)

    def stats(n, in_region=None):
        mask = is_named(n)
        if in_region is not None:
            mask &= region == REGIONS.index(in_region)
        return int(mask.sum()), int(flag[mask].sum()), float(dur[mask].sum())

    out: dict[str, float] = {}
    for alg in DECODERS:
        reg = f"decoder.decode.{alg}"
        for proc in ("resolvable", "mergeable", "singleton"):
            calls, accepts, secs = stats(f"decoder.{proc}", reg)
            out[f"decoder.{proc}.calls.{alg}"] = calls
            out[f"decoder.{proc}.accepts.{alg}"] = accepts
            out[f"decoder.{proc}.s.{alg}"] = secs
            if proc == "resolvable":
                out[f"decoder.resolvable.accept_ratio.{alg}"] = accepts / calls if calls else 0.0
        calls, _, secs = stats("decoder.forest.find", reg)
        out[f"decoder.forest.find.calls.{alg}"] = calls
        out[f"decoder.forest.find.s.{alg}"] = secs
        out[f"decoder.forest.union.calls.{alg}"] = stats("decoder.forest.union", reg)[0]
        out[f"decoder.self.s.{alg}"] = float(self_time[is_named(reg)].sum())
        out[f"decoder.sweeps.{alg}"] = tracer.counts.get(f"decoder.sweeps.{alg}", 0)
        out[f"decoder.processor_calls.{alg}"] = tracer.counts.get(f"decoder.processor_calls.{alg}", 0)
        out[f"decoder.resident_elements.{alg}"] = tracer.peaks.get(f"decoder.resident_elements.{alg}", 0)
        calls, _, secs = stats("ensemble.bins_of", reg)
        out[f"ensemble.bins_of.decode.calls.{alg}"] = calls
        out[f"ensemble.bins_of.decode.s.{alg}"] = secs
    calls, _, secs = stats("ensemble.bins_of", ENCODE)
    out["ensemble.bins_of.encode.calls"] = calls
    out["ensemble.bins_of.encode.s"] = secs
    out["core.mix64.calls"] = tracer.counts.get("core.mix64.calls", 0)
    out["core.generate_signal.s"] = stats("core.generate_signal")[2]
    out["measurement.encode.s"] = stats(ENCODE)[2]
    out["measurement.modulation_coeffs.decode.calls"] = tracer.counts.get(
        "measurement.modulation_coeffs.decode.calls", 0)
    out["cli.run_simulation.s"] = stats("cli.run_simulation")[2]
    busy_wall = tracer.counts.get("cli.pool_capacity_s", 0)
    out["cli.decode_busy_share"] = tracer.counts.get("cli.decode_busy_s", 0) / busy_wall if busy_wall else 0.0
    for n in ("fourier.build_plan", "fourier.acquire_stage"):
        calls, _, secs = stats(n)
        out[f"{n}.calls"] = calls
        out[f"{n}.s"] = secs
    out["fourier.fft.calls"] = stats("fourier.fft")[0]
    out["fourier.fft.bytes_computed"] = tracer.counts.get("fourier.fft.bytes_computed", 0)
    out["core.align_global_phase.s"] = stats("core.align_global_phase")[2]
    out["analysis.error_floor.s"] = stats("analysis.error_floor")[2]
    return out


# Per-layer values that must repeat exactly for a fixed seed.
def is_count(key: str) -> bool:
    return any(part in key for part in (
        ".calls", ".accepts", "sweeps", "processor_calls", "resident_elements", "bytes_computed"))
