"""JSON wire format of the tiling service (``ktiler serve``).

This module owns everything about the request/response *shape* of the
HTTP API and keeps the service itself free of parsing concerns:

* parsing and validating ``POST /v1/plan`` / ``POST /v1/explain``
  request bodies into a :class:`PlanRequest` (structured
  :class:`WireError` on anything malformed, mapped to 4xx);
* the app-preset registry (the ``ktiler explain`` presets plus the
  ``chain``/``fan``/``grid`` scalability probes) with per-preset
  parameter whitelists and bounds, so a request can never build an
  unbounded graph; the CLI builds its apps from the same registry
  (:func:`build_preset_app`);
* request *fingerprints* — exactly the plan artifact-store key
  (:func:`repro.store.plan_key` hashed with the store's content key),
  so a daemon's dedup map, its artifact store, and offline CLI runs
  all share one notion of identity;
* the request *echo* — the canonical, fully-resolved form of every
  fingerprint input, which the service memoizes fingerprints by;
* plan *digests* — the content key of the schedule's serialized form,
  the quantity the bit-identity contract is stated over.

The fingerprint covers only plan-*semantic* inputs (graph, GpuSpec,
frequency, KTilerConfig, planner backend).
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.fast_cluster import resolve_planner_backend
from repro.core.ktiler import KTilerConfig
from repro.gpusim.arch import ConfigurationError, GpuSpec
from repro.gpusim.freq import NOMINAL, FrequencyConfig
from repro.graph.kernel_graph import KernelGraph
from repro.store.artifacts import plan_key
from repro.store.fingerprint import content_key


class WireError(Exception):
    """A malformed or unserviceable request, carrying its HTTP status."""

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status

    def body(self) -> Dict[str, Any]:
        return error_body(self.code, self.message)


def error_body(code: str, message: str) -> Dict[str, Any]:
    """The structured error shape every non-2xx response uses."""
    return {"error": {"code": code, "message": message}}


# --------------------------------------------------------------------
# Request ids
# --------------------------------------------------------------------

#: The header a client uses to supply (and the daemon to echo) the id.
REQUEST_ID_HEADER = "X-Request-Id"

_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


def normalize_request_id(raw: Optional[str]) -> str:
    """Accept a well-formed client-supplied id, else mint a fresh one.

    Ids are limited to a conservative charset/length so they are safe
    verbatim in headers, JSON log lines, and Prometheus exemplars; a
    malformed id is *replaced*, never rejected — telemetry must not
    turn a plannable request into an error.
    """
    from repro.obs.ops import new_request_id

    if raw:
        candidate = raw.strip()
        if _REQUEST_ID_OK.match(candidate):
            return candidate
    return new_request_id()


# --------------------------------------------------------------------
# App presets


def _probe_builder(shape: str) -> Callable[[Dict[str, Any]], Any]:
    def build(params: Dict[str, Any]):
        from repro.apps.synthetic import build_probe_graph

        return build_probe_graph(
            shape=shape,
            kernels=params["kernels"],
            size=params["size"],
            seed=params["seed"],
        )

    return build


def _build_preset(preset: str, params: Dict[str, Any]):
    from repro.apps import build_hsopticalflow, build_pipeline
    from repro.apps.synthetic import (
        build_diamond,
        build_jacobi_pingpong,
        build_stencil_chain,
    )

    if preset == "fig5":
        return build_hsopticalflow(
            frame_size=params["size"],
            levels=params["levels"],
            jacobi_iters=params["iters"],
        )
    if preset == "demo":
        return build_pipeline(size=params["size"])
    if preset == "pipeline":
        return build_pipeline(size=params["size"])
    if preset == "jacobi":
        return build_jacobi_pingpong(iters=params["iters"], size=params["size"])
    if preset == "diamond":
        return build_diamond(size=params["size"])
    if preset == "stencil":
        return build_stencil_chain(size=params["size"])
    return _probe_builder(preset)(params)


#: preset -> {param: (default, lo, hi)}.
SERVE_PRESETS: Dict[str, Dict[str, Tuple[int, int, int]]] = {
    "demo": {"size": (128, 8, 2048)},
    "pipeline": {"size": (256, 8, 2048)},
    "fig5": {
        "size": (256, 8, 2048),
        "levels": (3, 1, 8),
        "iters": (20, 1, 500),
    },
    "jacobi": {"size": (256, 8, 2048), "iters": (5, 1, 500)},
    "diamond": {"size": (128, 8, 2048)},
    "stencil": {"size": (128, 8, 2048)},
    "chain": {
        "kernels": (64, 1, 4096),
        "size": (32, 8, 256),
        "seed": (0, 0, 2**31 - 1),
    },
    "fan": {
        "kernels": (64, 1, 4096),
        "size": (32, 8, 256),
        "seed": (0, 0, 2**31 - 1),
    },
    "grid": {
        "kernels": (64, 1, 4096),
        "size": (32, 8, 256),
        "seed": (0, 0, 2**31 - 1),
    },
}


def build_preset_app(preset: str, **params: int):
    """The preset's application at its registry defaults; each entry of
    ``params`` overrides one default, without the wire's bounds check."""
    defaults = {key: spec[0] for key, spec in SERVE_PRESETS[preset].items()}
    return _build_preset(preset, {**defaults, **params})


#: GpuSpec preset names accepted as ``gpu.base``.
GPU_BASES: Tuple[str, ...] = ("scaled", "paper", "embedded", "desktop")

#: GpuSpec fields a request may override.
_GPU_FIELDS = frozenset(f.name for f in fields(GpuSpec)) - {"extras"}


def _resolve_gpu_base(name: str) -> GpuSpec:
    from repro.experiments.presets import PAPER_SPEC, SCALED_SPEC
    from repro.gpusim.arch import DESKTOP_GPU, EMBEDDED_GPU

    return {
        "scaled": SCALED_SPEC,
        "paper": PAPER_SPEC,
        "embedded": EMBEDDED_GPU,
        "desktop": DESKTOP_GPU,
    }[name]


def _require_mapping(value: Any, name: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise WireError("bad_request", f"'{name}' must be a JSON object")
    return value


def _is_number(value: Any) -> bool:
    """A JSON number with a finite float value (``json.loads`` also
    yields NaN, Infinity, and integers no float can hold)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _int_in(params: Dict[str, Any], key: str, default: int, lo: int, hi: int) -> int:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError("bad_value", f"app.{key} must be an integer")
    if not lo <= value <= hi:
        raise WireError(
            "bad_value", f"app.{key}={value} out of range [{lo}, {hi}]"
        )
    return value


def _parse_app(payload: Dict[str, Any]) -> Tuple[str, Dict[str, int]]:
    app = _require_mapping(payload.get("app", {"preset": "demo"}), "app")
    preset = app.get("preset", "demo")
    if not isinstance(preset, str) or preset not in SERVE_PRESETS:
        raise WireError(
            "unknown_preset",
            f"unknown app.preset {preset!r}; known: {', '.join(sorted(SERVE_PRESETS))}",
        )
    allowed = SERVE_PRESETS[preset]
    extra = set(app) - set(allowed) - {"preset"}
    if extra:
        raise WireError(
            "bad_request",
            f"app.preset {preset!r} does not accept: {', '.join(sorted(extra))}",
        )
    params = {
        key: _int_in(app, key, default, lo, hi)
        for key, (default, lo, hi) in allowed.items()
    }
    return preset, params


def _parse_gpu(payload: Dict[str, Any]) -> Tuple[str, Dict[str, Any], GpuSpec]:
    gpu = _require_mapping(payload.get("gpu", {}), "gpu")
    base_name = gpu.get("base", "scaled")
    if base_name not in GPU_BASES:
        raise WireError(
            "unknown_gpu",
            f"unknown gpu.base {base_name!r}; known: {', '.join(GPU_BASES)}",
        )
    base = _resolve_gpu_base(base_name)
    if "l2_kb" in gpu and "l2_bytes" in gpu:
        # Either one sets the L2 size; accepting both would make the
        # spec depend on the body's key order.
        raise WireError("bad_request", "give gpu.l2_kb or gpu.l2_bytes, not both")
    overrides: Dict[str, Any] = {}
    for key, value in gpu.items():
        if key == "base":
            continue
        if key == "l2_kb":
            if not _is_number(value):
                raise WireError("bad_value", "gpu.l2_kb must be a finite number")
            overrides["l2_bytes"] = int(value * 1024)
            continue
        if key not in _GPU_FIELDS:
            raise WireError("unknown_gpu", f"unknown GpuSpec field {key!r}")
        if not (_is_number(value) or isinstance(value, str)):
            raise WireError(
                "bad_value", f"gpu.{key} must be a finite number or string"
            )
        overrides[key] = value
    try:
        spec = replace(base, **overrides) if overrides else base
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise WireError("bad_value", f"invalid GpuSpec: {exc}")
    echo = {"base": base_name}
    echo.update({k: v for k, v in gpu.items() if k != "base"})
    return base_name, echo, spec


def _parse_freq(payload: Dict[str, Any]) -> FrequencyConfig:
    freq = _require_mapping(
        payload.get("freq", {"gpu_mhz": NOMINAL.gpu_mhz, "mem_mhz": NOMINAL.mem_mhz}),
        "freq",
    )
    extra = set(freq) - {"gpu_mhz", "mem_mhz"}
    if extra:
        raise WireError(
            "bad_request", f"unknown freq fields: {', '.join(sorted(extra))}"
        )
    values = {}
    for key in ("gpu_mhz", "mem_mhz"):
        value = freq.get(key, getattr(NOMINAL, key))
        if not _is_number(value):
            raise WireError("bad_value", f"freq.{key} must be a finite number")
        values[key] = float(value)
    try:
        return FrequencyConfig(**values)
    except ConfigurationError as exc:
        raise WireError("bad_value", f"invalid frequency: {exc}")


def _parse_config(payload: Dict[str, Any], spec: GpuSpec) -> KTilerConfig:
    config = _require_mapping(payload.get("config", {}), "config")
    allowed = {f.name for f in fields(KTilerConfig)}
    extra = set(config) - allowed
    if extra:
        raise WireError(
            "bad_request",
            f"unknown config fields: {', '.join(sorted(extra))}",
        )
    kwargs: Dict[str, Any] = {}
    for key, value in config.items():
        if key == "grid_fractions":
            if not isinstance(value, list) or not value:
                raise WireError(
                    "bad_value", "config.grid_fractions must be a non-empty list"
                )
            for item in value:
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise WireError(
                        "bad_value", "config.grid_fractions entries must be numbers"
                    )
                if not 0.0 < item <= 1.0:
                    raise WireError(
                        "bad_value",
                        "config.grid_fractions entries must be in (0, 1]",
                    )
            kwargs[key] = tuple(float(v) for v in value)
        elif key == "include_anti":
            if not isinstance(value, bool):
                raise WireError("bad_value", "config.include_anti must be a boolean")
            kwargs[key] = value
        elif key == "max_cluster_nodes":
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise WireError(
                    "bad_value", "config.max_cluster_nodes must be null or int >= 1"
                )
            kwargs[key] = value
        else:  # threshold_us / launch_overhead_us
            if value is not None and (not _is_number(value) or value < 0):
                raise WireError(
                    "bad_value", f"config.{key} must be a finite non-negative number"
                )
            kwargs[key] = None if value is None else float(value)
    # The serve default matches `ktiler explain`: charge the device's
    # inter-launch gap per launch unless the request says otherwise.
    if "launch_overhead_us" not in kwargs:
        kwargs["launch_overhead_us"] = spec.launch_gap_us
    return KTilerConfig(**kwargs)


_TOP_KEYS = {
    "app",
    "gpu",
    "freq",
    "config",
    "planner_backend",
    "measure",
    "ledger",
    "timeout_s",
}


@dataclass(frozen=True)
class PlanRequest:
    """A validated plan/explain request, ready to hand to a KTiler.

    ``echo`` is the canonical form of every fingerprint input: the
    preset with all its params, the GPU overrides as given, the
    resolved frequency, config and planner backend.  Equal echoes mean
    equal fingerprints, which is what lets the service answer a repeat
    without building the graph.  ``graph`` is built on first use and
    kept; the service touches a request from one thread at a time.
    """

    preset: str
    params: Dict[str, int]
    spec: GpuSpec
    freq: FrequencyConfig
    config: KTilerConfig
    planner_backend: str
    measure: bool = False
    ledger: bool = False
    timeout_s: Optional[float] = None
    echo: Dict[str, Any] = field(default_factory=dict)
    _graph: Optional[KernelGraph] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def graph(self) -> KernelGraph:
        """The preset's kernel graph, built once on first use."""
        if self._graph is None:
            graph = _build_preset(self.preset, self.params).graph
            object.__setattr__(self, "_graph", graph)
        return self._graph


def parse_plan_request(
    payload: Any,
    default_planner_backend: Optional[str] = None,
) -> PlanRequest:
    """Validate a decoded JSON body into a :class:`PlanRequest`.

    Raises :class:`WireError` (→ 4xx) on any unknown key, unknown
    preset/GpuSpec field, or out-of-bounds or non-finite value;
    unspecified knobs fall back to the service defaults and then the
    usual env-var resolution.  Builds no graph: see
    :attr:`PlanRequest.graph`.
    """
    body = _require_mapping(payload, "request body")
    extra = set(body) - _TOP_KEYS
    if extra:
        raise WireError(
            "bad_request",
            f"unknown request fields: {', '.join(sorted(extra))}",
        )
    preset, params = _parse_app(body)
    base_name, gpu_echo, spec = _parse_gpu(body)
    freq = _parse_freq(body)
    config = _parse_config(body, spec)

    planner_backend = body.get("planner_backend", default_planner_backend)
    if planner_backend is not None and not isinstance(planner_backend, str):
        raise WireError("bad_value", "planner_backend must be a string")
    try:
        planner_backend = resolve_planner_backend(planner_backend)
    except ConfigurationError as exc:
        raise WireError("bad_value", str(exc))

    measure = body.get("measure", False)
    if not isinstance(measure, bool):
        raise WireError("bad_value", "measure must be a boolean")

    ledger = body.get("ledger", False)
    if not isinstance(ledger, bool):
        raise WireError("bad_value", "ledger must be a boolean")

    timeout_s = body.get("timeout_s")
    if timeout_s is not None and (not _is_number(timeout_s) or timeout_s <= 0):
        raise WireError("bad_value", "timeout_s must be a finite positive number")

    echo = {
        "app": {"preset": preset, **params},
        "gpu": gpu_echo,
        "freq": {"gpu_mhz": freq.gpu_mhz, "mem_mhz": freq.mem_mhz},
        "config": _config_echo(config),
        "planner_backend": planner_backend,
    }
    return PlanRequest(
        preset=preset,
        params=params,
        spec=spec,
        freq=freq,
        config=config,
        planner_backend=planner_backend,
        measure=measure,
        ledger=ledger,
        timeout_s=None if timeout_s is None else float(timeout_s),
        echo=echo,
    )


def _config_echo(config: KTilerConfig) -> Dict[str, Any]:
    echo = asdict(config)
    echo["grid_fractions"] = list(echo["grid_fractions"])
    return echo


def plan_fingerprint(request: PlanRequest, key_for) -> str:
    """The request's identity: exactly the plan artifact-store key.

    ``key_for`` is an artifact store's :meth:`key_for` (NULL_STORE's
    works too — all stores hash identically), so a serve fingerprint
    IS the key under which ``KTiler.plan`` persists the result: warm
    store entries written by CLI runs are served without planning.
    """
    return key_for(
        plan_key(
            request.graph,
            request.spec,
            request.config,
            request.freq,
            planner_backend=request.planner_backend,
        )
    )


def plan_digest(schedule, graph: KernelGraph) -> str:
    """Content key of the schedule's wire form — the bit-identity unit."""
    from repro.core.serialize import schedule_to_dict

    return content_key(schedule_to_dict(schedule, graph))
